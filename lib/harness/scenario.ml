open Desim

type mode =
  | Native_sync
  | Virt_sync
  | Rapilog
  | Rapilog_quorum
  | Rapilog_sharded
  | Wcache_flush
  | Unsafe_wcache
  | Async_commit

let mode_name = function
  | Native_sync -> "native-sync"
  | Virt_sync -> "virt-sync"
  | Rapilog -> "rapilog"
  | Rapilog_quorum -> "rapilog-quorum"
  | Rapilog_sharded -> "rapilog-sharded"
  | Wcache_flush -> "wcache-flush"
  | Unsafe_wcache -> "unsafe-wcache"
  | Async_commit -> "async-commit"

let all_modes =
  [
    Native_sync;
    Virt_sync;
    Rapilog;
    Rapilog_quorum;
    Rapilog_sharded;
    Wcache_flush;
    Unsafe_wcache;
    Async_commit;
  ]

let mode_of_name name =
  List.find_opt (fun mode -> String.equal (mode_name mode) name) all_modes

let mode_is_durable = function
  | Native_sync | Virt_sync | Rapilog | Rapilog_sharded | Wcache_flush -> `Always
  | Rapilog_quorum -> `Minority_loss_too
  | Unsafe_wcache -> `Os_crash_only
  | Async_commit -> `Never

type device_kind =
  | Disk of Storage.Hdd.config
  | Flash of Storage.Ssd.config
  | Nvme of Storage.Nvme.config

let device_name = function
  | Disk config -> Printf.sprintf "hdd-%drpm" config.Storage.Hdd.rpm
  | Flash _ -> "ssd"
  | Nvme _ -> "nvme"

type workload_kind =
  | Tpcc of Workload.Tpcc_lite.config
  | Micro of Workload.Microbench.config
  | Ycsb of Workload.Ycsb_lite.config

type config = {
  mode : mode;
  device : device_kind;
  single_disk : bool;
  data_spindles : int;
  profile : Dbms.Engine_profile.t;
  clients : int;
  think_time : Time.span;
  workload : workload_kind;
  arrival : Workload.Arrival.process;
  churn : Workload.Churn.schedule option;
  warmup : Time.span;
  duration : Time.span;
  seed : int64;
  logger : Rapilog.Trusted_logger.config;
  quorum : Net.Quorum.config;
  psu : Power.Psu.config;
  checkpoint_interval : Time.span option;
  pool : Dbms.Buffer_pool.config;
  wal_writer_interval : Time.span;
  log_streams : int;
  shard : Shard.Tier.config;
}

let default =
  {
    mode = Rapilog;
    device = Disk Storage.Hdd.default_7200rpm;
    single_disk = false;
    data_spindles = 4;
    profile = Dbms.Engine_profile.postgres_like;
    clients = 8;
    think_time = Time.zero_span;
    workload = Tpcc Workload.Tpcc_lite.default_config;
    arrival = Workload.Arrival.Closed_loop;
    churn = None;
    warmup = Time.ms 500;
    duration = Time.sec 3;
    seed = 42L;
    logger = Rapilog.Trusted_logger.default_config;
    quorum = Net.Quorum.default;
    psu = Power.Psu.default;
    checkpoint_interval = Some Time.(sec 1);
    pool = { Dbms.Buffer_pool.default_config with capacity_pages = 4096 };
    wal_writer_interval = Time.ms 10;
    log_streams = 1;
    shard = Shard.Tier.default_config;
  }

type generator = {
  initial_rows : (int * string) list;
  next_txn : unit -> Dbms.Engine.op list;
}

type built = {
  config : config;
  sim : Sim.t;
  vmm : Hypervisor.Vmm.t;
  power : Power.Power_domain.t;
  engine : Dbms.Engine.t;
  wal : Dbms.Wal.t;
  wal_config : Dbms.Wal.config;
  pool : Dbms.Buffer_pool.t;
  log_physical : Storage.Block.t;
  log_attached : Storage.Block.t;
  data_physical : Storage.Block.t;
  data_attached : Storage.Block.t;
  data_members : Storage.Block.t array;
  data_chunk_sectors : int;
  logger : Rapilog.Trusted_logger.t option;
  quorum : Net.Quorum.t option;
  shard : Shard.Tier.t option;
  generator : generator;
}

let make_device sim = function
  | Disk config -> Storage.Hdd.create sim config
  | Flash config -> Storage.Ssd.create sim config
  | Nvme config -> Storage.Nvme.create sim config

let make_generator sim config =
  match config.workload with
  | Tpcc tpcc_config ->
      let gen = Workload.Tpcc_lite.create (Sim.rng sim) tpcc_config in
      {
        initial_rows = Workload.Tpcc_lite.initial_rows gen;
        next_txn = (fun () -> snd (Workload.Tpcc_lite.next gen));
      }
  | Micro micro_config ->
      let gen = Workload.Microbench.create (Sim.rng sim) micro_config in
      {
        initial_rows = Workload.Microbench.initial_rows gen;
        next_txn = (fun () -> Workload.Microbench.next gen);
      }
  | Ycsb ycsb_config ->
      let gen = Workload.Ycsb_lite.create (Sim.rng sim) ycsb_config in
      {
        initial_rows = Workload.Ycsb_lite.initial_rows gen;
        next_txn = (fun () -> Workload.Ycsb_lite.next gen);
      }

let hdd_streaming_bandwidth config =
  let period = Time.span_to_float_sec (Storage.Hdd.rotation_period config) in
  float_of_int (config.Storage.Hdd.sectors_per_track * config.Storage.Hdd.sector_size)
  /. period

(* The single-disk layout keeps the log at the low addresses and the data
   pages half a gigabyte up: far enough that alternating between them
   costs real seeks, as it would on one spindle. *)
let single_disk_data_start_lba = 1_048_576

let build config =
  assert (config.clients > 0);
  let sim = Sim.create ~seed:config.seed () in
  let vmm_config =
    match config.mode with
    | Native_sync | Wcache_flush | Unsafe_wcache | Async_commit -> Hypervisor.Vmm.native
    | Virt_sync | Rapilog | Rapilog_quorum | Rapilog_sharded ->
        Hypervisor.Vmm.default_sel4
  in
  let vmm = Hypervisor.Vmm.create sim vmm_config in
  let power = Power.Power_domain.create sim config.psu in
  assert (config.data_spindles >= 1);
  let log_physical = make_device sim config.device in
  let data_physical, data_members, data_chunk_sectors =
    if config.single_disk then (log_physical, [| log_physical |], 0)
    else if config.data_spindles = 1 then
      let device = make_device sim config.device in
      (device, [| device |], 0)
    else
      (* The data volume of a real testbed: several spindles striped. *)
      let members =
        Array.init config.data_spindles (fun _ -> make_device sim config.device)
      in
      (Storage.Stripe.create sim ~chunk_sectors:64 members, members, 64)
  in
  let config =
    if config.single_disk then
      {
        config with
        pool =
          {
            config.pool with
            Dbms.Buffer_pool.data_start_lba =
              max config.pool.Dbms.Buffer_pool.data_start_lba
                single_disk_data_start_lba;
          };
      }
    else config
  in
  if not config.single_disk then
    Power.Power_domain.register_device power data_physical;
  let virtio_of device =
    Hypervisor.Vmm.attach_virtio_disk vmm (Hypervisor.Virtio_blk.backend_of_block device)
  in
  let log_attached, data_attached, logger, quorum, shard_tier =
    match config.mode with
    | Native_sync | Async_commit ->
        Power.Power_domain.register_device power log_physical;
        (log_physical, data_physical, None, None, None)
    | Virt_sync ->
        Power.Power_domain.register_device power log_physical;
        (virtio_of log_physical, virtio_of data_physical, None, None, None)
    | Rapilog_sharded ->
        (* A multi-tenant logger tier shares the machine with the
           benchmark's embedded DBMS: shard 0's first device doubles as
           the DBMS log device. The tier's WAL regions sit above the
           embedded layout, so the two sets of streams are mutually
           invisible to recovery. *)
        assert (not config.single_disk);
        assert (config.log_streams = 1);
        let tier_config =
          {
            config.shard with
            Shard.Tier.logger = config.logger;
            horizon = Time.add_span config.warmup config.duration;
          }
        in
        let tier =
          Shard.Tier.attach sim ~vmm ~power ~config:tier_config
            ~first_device:log_physical
            ~make_device:(fun () -> make_device sim config.device)
            ()
        in
        ( Shard.Tier.shard_frontend tier 0,
          virtio_of data_physical,
          Some (Shard.Tier.shard_logger tier 0),
          None,
          Some tier )
    | Rapilog | Rapilog_quorum ->
        (* The logger registers the physical device itself. *)
        let frontend, logger =
          Rapilog.attach ~vmm ~power ~config:config.logger ~device:log_physical ()
        in
        let quorum =
          if config.mode = Rapilog_quorum then
            (* Each replica is its own machine, its own failure domain:
               none of the replica devices join the primary's power
               domain. *)
            Some
              (Net.Quorum.attach sim config.quorum ~logger
                 ~make_device:(fun _ -> make_device sim config.device))
          else None
        in
        (frontend, virtio_of data_physical, Some logger, quorum, None)
    | Wcache_flush | Unsafe_wcache ->
        (* Same hardware; the modes differ in whether the WAL issues a
           flush barrier after every force (safe) or trusts the volatile
           cache (fast and lossy on power cuts). *)
        let cached = Storage.Write_cache.wrap sim Storage.Write_cache.default log_physical in
        Power.Power_domain.register_device power cached;
        (cached, data_physical, None, None, None)
  in
  (* With devices_per_shard > 1 the tier stripes shard 0 across members;
     recovery must read the striped view, not the bare first member. *)
  let log_physical =
    match shard_tier with
    | Some tier -> Shard.Tier.shard_physical tier 0
    | None -> log_physical
  in
  assert (config.log_streams >= 1);
  (* The single-disk layout reserves the low addresses for one log
     region; parallel streams need the dedicated-log-device layout. *)
  assert (not (config.single_disk && config.log_streams > 1));
  let wal_config =
    {
      Dbms.Wal.default_config with
      Dbms.Wal.flush_after_write = (config.mode = Wcache_flush);
      streams = config.log_streams;
    }
  in
  let wal = Dbms.Wal.create sim wal_config ~device:log_attached in
  let pool =
    (* A dirty page's flush forces the page's own log stream: the engine
       routes a page's updates to stream [page mod streams], and page
       LSNs are offsets within that stream. *)
    Dbms.Buffer_pool.create sim config.pool ~device:data_attached
      ~wal_force:(fun ~page lsn ->
        Dbms.Wal.force ~stream:(page mod config.log_streams) wal lsn)
  in
  let async_commit = config.mode = Async_commit in
  let engine =
    Dbms.Engine.create ~vmm ~profile:config.profile ~async_commit ~wal ~pool ()
  in
  if async_commit then
    ignore
      (Dbms.Engine.spawn_wal_writer engine (Hypervisor.Vmm.guest vmm)
         ~interval:config.wal_writer_interval);
  (* Checkpointing (master block + truncation) is single-stream: with
     parallel streams there is no one redo LSN, so recovery repeats
     history from each stream's start instead. *)
  (match config.checkpoint_interval with
  | Some interval when config.log_streams = 1 ->
      ignore
        (Dbms.Checkpoint.start_in_domain (Hypervisor.Vmm.guest vmm)
           { Dbms.Checkpoint.interval } ~wal ~pool)
  | Some _ | None -> ());
  (* Background writer: keeps clean eviction victims available so page
     misses rarely stall behind a data-device write. *)
  ignore
    (Dbms.Buffer_pool.spawn_cleaner pool (Hypervisor.Vmm.guest vmm)
       ~interval:(Time.ms 20) ~batch:16);
  {
    config;
    sim;
    vmm;
    power;
    engine;
    wal;
    wal_config;
    pool;
    log_physical;
    log_attached;
    data_physical;
    data_attached;
    data_members;
    data_chunk_sectors;
    logger;
    quorum;
    shard = shard_tier;
    generator = make_generator sim config;
  }

(* Every trusted logger on the machine: one for the plain rapilog
   modes, one per shard for the tier, none for the native modes.
   Crash-surface monitors and quiesce walk this list so the sharded
   mode gets the same scrutiny per logger as the single-logger modes. *)
let all_loggers built =
  match built.shard with
  | Some tier -> Shard.Tier.loggers tier
  | None -> Option.to_list built.logger

(* What recovery reads after a crash: the bare log device, or — when
   replicas exist — the primary's durable media merged with the
   replicas' received prefixes. The merge is what turns machine loss
   from fatal to survivable; for single-machine crash kinds it only
   ever adds durable-but-unacked extras, which the audit tolerates. *)
let recovery_log_device built =
  match built.quorum with
  | Some quorum ->
      Net.Quorum.recovery_log_device quorum ~primary:built.log_physical
  | None -> built.log_physical
