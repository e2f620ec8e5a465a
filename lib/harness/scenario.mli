(** System configurations under test.

    A scenario assembles a complete simulated machine — devices, power
    domain, (optional) hypervisor, trusted logger, database engine and
    workload generator — in one of the modes the evaluation compares:

    - [Native_sync]: bare metal, write cache off, synchronous log forces.
      The paper's safe baseline.
    - [Virt_sync]: the same DBMS virtualised on the seL4-based VMM, still
      forcing synchronously. Isolates the virtualisation overhead.
    - [Rapilog]: virtualised, log disk interposed by the trusted logger —
      commits acknowledge from the trusted buffer.
    - [Rapilog_quorum]: RapiLog-Q — the trusted logger streams admitted
      entries to [n] replica machines and commits acknowledge only once
      [k] of them hold the entry ({!Net.Quorum}, cluster shape from
      {!config.quorum}). At majority quorum the acknowledged prefix
      survives losing the primary plus any minority of replicas, with
      an explicit leader election at recovery. RapiLog-R is the
      one-replica case: [n = 1, k = 1] (the [rapilog-replicated]
      preset of [Scen.preset]) survives losing the whole primary
      machine, and [n = 1, k = 0] replicates without waiting.
    - [Rapilog_sharded]: RapiLog-S — the machine additionally hosts a
      sharded multi-tenant logger tier ({!Shard.Tier}): per-tenant log
      streams hash-partitioned across several trusted-logger shards,
      each shard with its own device (or stripe) and WAL regions. The
      benchmark's embedded DBMS shares shard 0's device, so the usual
      commit-path measurements still apply while the tier absorbs the
      multi-tenant open-loop load. Per-tenant durability contracts are
      audited by {!Shard.Recover}.
    - [Wcache_flush]: bare metal with the disk's volatile write cache
      enabled and a flush barrier after every log force. Safe — and the
      barrier largely negates the cache, which is why the cache gets
      disabled instead in practice.
    - [Unsafe_wcache]: the same cache with no flushes. Fast and *not*
      durable across power cuts.
    - [Async_commit]: bare metal, commits acknowledge without forcing;
      a background WAL writer forces periodically. Fast and not durable
      across any crash. (PostgreSQL's [synchronous_commit = off].) *)

type mode =
  | Native_sync
  | Virt_sync
  | Rapilog
  | Rapilog_quorum
  | Rapilog_sharded
  | Wcache_flush
  | Unsafe_wcache
  | Async_commit

val mode_name : mode -> string
val mode_of_name : string -> mode option
val all_modes : mode list

val mode_is_durable :
  mode ->
  [ `Always | `Minority_loss_too | `Os_crash_only | `Never ]
(** The durability each mode promises: [`Always] covers OS crashes and
    power cuts, [`Minority_loss_too] additionally survives the primary
    plus any [quorum - 1] replicas vanishing, partitions included
    (quorum replication — the promise assumes [quorum] is a majority of
    {!Net.Quorum.config}'s replicas; at [n = 1, k = 1] that is the
    whole primary machine), [`Os_crash_only] survives OS crashes but
    not power cuts, [`Never] can lose acknowledged commits on any
    failure. *)

type device_kind =
  | Disk of Storage.Hdd.config  (** rotational disk ({!Storage.Hdd}) *)
  | Flash of Storage.Ssd.config  (** SATA-era SSD ({!Storage.Ssd}) *)
  | Nvme of Storage.Nvme.config
      (** NVMe / zoned-append drive ({!Storage.Nvme}): µs-scale writes,
          [queue_depth]-way concurrent submission *)

val device_name : device_kind -> string

type workload_kind =
  | Tpcc of Workload.Tpcc_lite.config
  | Micro of Workload.Microbench.config
  | Ycsb of Workload.Ycsb_lite.config

type config = {
  mode : mode;
  device : device_kind;
  single_disk : bool;
      (** log and data share one physical device (the log region at the
          low addresses, data pages far above) instead of the default
          dedicated log disk — the cost-saving configuration whose sync
          penalty motivates RapiLog *)
  data_spindles : int;
      (** disks striped (RAID-0) into the data volume — a testbed's data
          array; 1 for a single device, ignored for [single_disk] *)
  profile : Dbms.Engine_profile.t;
  clients : int;
      (** closed-loop client count — or, under an open-loop arrival
          process, the size of the worker pool arrivals queue onto *)
  think_time : Desim.Time.span;
  workload : workload_kind;
  arrival : Workload.Arrival.process;
      (** how clients offer load (default [Closed_loop], the legacy
          behaviour). [Open_loop shape] spawns a dispatcher driven by
          the arrival process instead: transactions arrive on the
          process's clock whether or not the system kept up, queue in
          front of the [clients]-wide worker pool, and report their
          full sojourn (queue wait included) as latency. *)
  churn : Workload.Churn.schedule option;
      (** join/leave gating of the closed-loop clients (default none —
          the fleet is always fully joined). Meaningless under an
          open-loop arrival process; {!Scen.validate} rejects the
          combination. *)
  warmup : Desim.Time.span;
  duration : Desim.Time.span;  (** measurement window *)
  seed : int64;
  logger : Rapilog.Trusted_logger.config;
  quorum : Net.Quorum.config;
      (** cluster size, quorum and per-replica link shapes, for
          [Rapilog_quorum] *)
  psu : Power.Psu.config;
  checkpoint_interval : Desim.Time.span option;
  pool : Dbms.Buffer_pool.config;
  wal_writer_interval : Desim.Time.span;  (** for [Async_commit] *)
  log_streams : int;
      (** parallel WAL streams (default 1). With more than one, the
          engine partitions pages across streams, commits carry
          dependency vectors, and checkpointing is disabled (recovery
          repeats history from each stream's start). Requires the
          dedicated-log-device layout (not [single_disk]). *)
  shard : Shard.Tier.config;
      (** tier shape and load for [Rapilog_sharded] (shards, devices
          per shard, tenants, open-loop clients). [build] overrides the
          tier's [logger] with {!config.logger} and its [horizon] with
          [warmup + duration] so the tier's arrivals stop with the
          benchmark. [Rapilog_sharded] requires the dedicated-log-device
          layout (not [single_disk]) and [log_streams = 1]. *)
}

val default : config
(** RapiLog mode, 7200 rpm disk, pg-like profile, 8 clients, TPC-C-lite,
    0.5 s warmup, 3 s measurement, seed 42. *)

type generator = {
  initial_rows : (int * string) list;
  next_txn : unit -> Dbms.Engine.op list;
}

type built = {
  config : config;
  sim : Desim.Sim.t;
  vmm : Hypervisor.Vmm.t;
  power : Power.Power_domain.t;
  engine : Dbms.Engine.t;
  wal : Dbms.Wal.t;
  wal_config : Dbms.Wal.config;
  pool : Dbms.Buffer_pool.t;
  log_physical : Storage.Block.t;  (** raw log device: recovery reads this *)
  log_attached : Storage.Block.t;  (** what the WAL writes to *)
  data_physical : Storage.Block.t;
  data_attached : Storage.Block.t;  (** what the buffer pool writes to *)
  data_members : Storage.Block.t array;
      (** the physical devices under [data_physical]: the stripe members
          when the data volume is striped, else the single device *)
  data_chunk_sectors : int;
      (** stripe chunk size; 0 when the data volume is not striped *)
  logger : Rapilog.Trusted_logger.t option;
      (** in [Rapilog], [Rapilog_quorum] and [Rapilog_sharded] modes
          (shard 0's logger for the latter) *)
  quorum : Net.Quorum.t option;  (** in [Rapilog_quorum] mode *)
  shard : Shard.Tier.t option;  (** in [Rapilog_sharded] mode *)
  generator : generator;
}

val build : config -> built
(** Assemble the machine; nothing is running yet except device-internal
    and logger processes. *)

val all_loggers : built -> Rapilog.Trusted_logger.t list
(** Every trusted logger on the machine: one per shard in
    [Rapilog_sharded] mode, the single logger in the other rapilog
    modes, empty for the native modes. Crash-surface monitors and
    quiesce walk this list. *)

val recovery_log_device : built -> Storage.Block.t
(** The log device recovery should read after a crash: [log_physical],
    or — when the scenario has replicas — a frozen merge of the
    primary's durable media with the replicas' received entry prefixes
    ({!Net.Quorum.recovery_log_device}, which also runs the leader
    election when the primary is dead). *)

val hdd_streaming_bandwidth : Storage.Hdd.config -> float
(** Sequential write bandwidth in bytes/s — the drain rate available to
    the trusted logger on this disk. *)
