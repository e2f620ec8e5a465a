(** Scenario-builder DSL: the front door to the harness.

    Every experiment in this repository ultimately runs a
    {!Harness.Scenario.config} — a pure record naming a mode, a device,
    a commit policy, a workload and the timing of the measurement
    window. Historically each bench module assembled that record by
    hand; this module replaces the hand-rolled records with a small
    composable pipeline:

    {[
      Scen.Builder.(
        start () |> mode Harness.Scenario.Rapilog |> nvme |> clients 16
        |> open_loop (Workload.Arrival.Poisson { rate = 400. })
        |> build)
    ]}

    Three properties make the DSL more than sugar:

    - {b Purity}: a builder only ever rewrites the configuration record
      (and an explicit fault schedule riding alongside). No randomness,
      no clocks — the seed is itself an axis — so a built config is a
      pure function of the combinators applied, and two equal pipelines
      produce bit-identical configs ({!digest} certifies it).
    - {b One validator}: {!validate} is the single place inconsistent
      axis combinations are rejected (parallel WAL streams under a
      [Serial] commit policy, a shard tier outside [Rapilog_sharded],
      churn under an open-loop arrival process, …), with actionable
      messages. Bench executables route their flag parsing through
      {!validate_or_exit} so every CLI rejects the same nonsense the
      same way, with exit code 2.
    - {b Inheritance}: because the result is an ordinary
      [Scenario.config], everything composed here — flash crowds,
      diurnal arrivals, churn, hot keys — automatically inherits the
      steady-state metrics, the sampled failure trials and the
      exhaustive crash-surface sweep. New workloads get the full
      verification harness for free. *)

type fault = {
  f_kind : Harness.Crash_surface.kind;
  f_rate : float;
      (** fraction of enumerated event boundaries to explore,
          [0 < f_rate <= 1]; reinterpreted deterministically as a stride by
          {!stride_of_rate}, never as random sampling *)
}
(** One entry of a builder's fault schedule: which crash kind to sweep
    and how densely. The schedule rides {e alongside} the configuration
    (it parameterises {!Harness.Crash_surface.config}, not the scenario
    itself), so adding faults never perturbs the config digest. *)

val stride_of_rate : float -> int
(** [stride_of_rate r] is the crash-sweep stride exploring a fraction
    [r] of the enumerated boundaries: [max 1 (round (1 / r))]. Rate 1.0
    explores every boundary; rate 0.1 every 10th. Deterministic — a
    rate is a coverage knob, not a probability. *)

type key_space =
  | Uniform_keys of int  (** [n] keys, uniformly popular *)
  | Zipf_keys of { n : int; theta : float }
      (** [n] keys under Zipf popularity with exponent [theta]
          (sampled by {!Workload.Key_dist.zipf}); larger [theta] means
          a hotter head — [theta >= 1] concentrates most traffic on a
          handful of hot keys *)
(** The key-population axis of the keyed workloads (Micro and YCSB).
    TPC-C-lite derives its keys from the schema, so {!Builder.keys}
    rejects it. *)

(** The builder pipeline. A {!t} is an immutable value: every
    combinator returns a new builder, so partial pipelines can be
    shared, specialised and fanned out ({!Builder.grid}) without
    aliasing surprises. Combinators that can fail (an unknown device
    name, a key-space on TPC-C) record an error inside the builder
    instead of raising, so a pipeline always composes; {!Builder.build}
    reports every recorded error at once. *)
module Builder : sig
  type t
  (** A configuration under construction: a [Scenario.config] being
      rewritten, a fault schedule, and any errors recorded so far. *)

  val start : ?base:Harness.Scenario.config -> unit -> t
  (** A fresh pipeline over [base] (default {!Harness.Scenario.default})
      with an empty fault schedule. *)

  (** {2 Core axes} *)

  val mode : Harness.Scenario.mode -> t -> t
  (** Select the system configuration under test (rapilog, native-sync,
      …). *)

  val device : Harness.Scenario.device_kind -> t -> t
  (** Select the log/data device model, fully configured. *)

  val hdd : t -> t
  (** {!device} shorthand: the default 7200 rpm disk. *)

  val ssd : t -> t
  (** {!device} shorthand: the default SATA-era SSD. *)

  val nvme : t -> t
  (** {!device} shorthand: the default NVMe drive. *)

  val device_of_name : string -> t -> t
  (** ["hdd"], ["ssd"] or ["nvme"] (their default configs) — the CLI
      spelling of the shorthands above. Unknown names record an
      error. *)

  val profile : Dbms.Engine_profile.t -> t -> t
  (** Select the engine parameter profile (pg-like, innodb-like, …). *)

  val commit_policy : Dbms.Commit_policy.t -> t -> t
  (** Override the profile's commit-flush batching policy, keeping its
      other parameters. *)

  val streams : int -> t -> t
  (** Parallel WAL streams ([Scenario.log_streams]); more than one
      requires the dedicated-log-device layout and a non-[Serial]
      commit policy ({!validate} enforces both). *)

  val clients : int -> t -> t
  (** Closed-loop client count — or, under an open-loop arrival
      process, the size of the worker pool arrivals queue onto. *)

  val think : Desim.Time.span -> t -> t
  (** Closed-loop think time between transactions. *)

  val seed : int64 -> t -> t
  (** Root seed of the simulation's deterministic rng tree. Every
      random choice — workload draws, arrival instants, failure
      sampling — flows from it, so one axis controls replay identity. *)

  val warmup : Desim.Time.span -> t -> t
  (** Time excluded from measurement before the window opens. Set
      timing {e before} applying a {!Workloads} preset: the presets
      read the builder's warmup/duration to place their bursts. *)

  val duration : Desim.Time.span -> t -> t
  (** Length of the measurement window. *)

  val single_disk : bool -> t -> t
  (** Share one physical device between log and data (the cost-saving
      layout whose sync penalty motivates RapiLog) instead of the
      default dedicated log disk. *)

  val spindles : int -> t -> t
  (** Disks striped into the data volume ([Scenario.data_spindles]);
      ignored under {!single_disk}. *)

  val checkpoint : Desim.Time.span option -> t -> t
  (** Checkpoint interval; [None] disables checkpointing. *)

  (** {2 Workload axes} *)

  val workload : Harness.Scenario.workload_kind -> t -> t
  (** Select the transaction generator, fully configured. The
      fine-grained combinators below rewrite the selected generator's
      config in place. *)

  val keys : key_space -> t -> t
  (** Set the key population of a Micro or YCSB workload. Records an
      error on TPC-C-lite (its keys come from the schema). *)

  val values : int -> t -> t
  (** Row payload bytes, for every workload kind. *)

  val read_fraction : float -> t -> t
  (** Fraction of YCSB operations that read instead of update. Records
      an error for the other workload kinds (Micro is update-only,
      TPC-C's mix is fixed). *)

  val arrival : Workload.Arrival.process -> t -> t
  (** How clients offer load: the legacy closed loop, or an open-loop
      arrival process feeding the worker pool. *)

  val open_loop : Workload.Arrival.shape -> t -> t
  (** [arrival (Open_loop shape)]. *)

  val churn : Workload.Churn.schedule option -> t -> t
  (** Join/leave gating of the closed-loop clients; [None] restores the
      always-joined fleet. Meaningless under an open-loop arrival
      process — {!validate} rejects the combination. *)

  (** {2 Fault, replication and tier axes} *)

  val fault : rate:float -> kind:Harness.Crash_surface.kind -> t -> t
  (** Append a crash-sweep entry to the fault schedule: explore
      fraction [rate] of the enumerated boundaries (see
      {!stride_of_rate}) under [kind]. Rates outside [0 < rate <= 1] record an
      error. The schedule is read back with {!faults}; it does not
      perturb the config or its digest. *)

  val quorum : replicas:int -> quorum:int -> t -> t
  (** Cluster size and ack threshold, for [Rapilog_quorum]; keeps the
      configured per-replica link shapes. [replicas = 1] is RapiLog-R:
      [quorum = 1] waits for the replica's ack, [quorum = 0] does
      not. *)

  val shards : int -> t -> t
  (** Logger shard count of the multi-tenant tier, for
      [Rapilog_sharded]. *)

  val tenants : int -> t -> t
  (** Tenant population of the multi-tenant tier, for
      [Rapilog_sharded]. *)

  (** {2 Reading a pipeline back} *)

  val peek : t -> Harness.Scenario.config
  (** The configuration as rewritten so far, {e without} validation —
      for inspection and for presets that read one axis to derive
      another. *)

  val faults : t -> fault list
  (** The fault schedule in the order the {!fault} combinator appended
      it. *)

  val errors : t -> string list
  (** Errors recorded by combinators so far, oldest first; empty for a
      healthy pipeline. *)

  val build : t -> Harness.Scenario.config
  (** Validate and return the finished configuration. Raises
      [Invalid_argument] listing {e every} recorded combinator error
      and validation failure — the DSL's one exit, so a bad pipeline
      cannot silently produce a runnable config. *)

  val build_or_exit : t -> Harness.Scenario.config
  (** {!build} for command-line front ends: print the combined
      combinator and validation errors to stderr and [exit 2] — the
      exit code every bench executable reserves for usage errors —
      instead of raising. *)

  val grid : axes:(t -> t) list list -> t -> t list
  (** Cartesian sweep: [grid ~axes base] applies one combinator from
      each axis in every combination, yielding
      [product (List.map List.length axes)] builders. The first axis
      varies slowest (row-major), so
      [grid ~axes:[[a1; a2]; [b1; b2]] base] is
      [[a1 |> b1; a1 |> b2; a2 |> b1; a2 |> b2]] applied to [base] —
      the enumeration order bench tables print in. *)
end

val validate :
  Harness.Scenario.config -> (Harness.Scenario.config, string) result
(** The single consistency check every front end shares. Rejects, with
    an actionable message naming the offending axes:

    - non-positive client counts, spindle counts or stream counts;
    - parallel WAL streams on the shared-single-disk layout, or under
      a [Serial] commit policy (serialised commits cannot feed
      multiple streams);
    - [Rapilog_sharded] with [single_disk] or [log_streams > 1], and a
      non-default shard tier outside [Rapilog_sharded];
    - a non-default quorum config outside [Rapilog_quorum], and under
      it every {!Net.Quorum.config_errors}: quorum bounds
      ([0 <= quorum <= replicas]) and lossy links
      ([drop_probability > 0], named by index — the runtime has no
      retransmit, so a lost message would stall every commit);
    - malformed workload parameters (empty key spaces, non-positive
      payloads, read fractions outside [0, 1]);
    - malformed arrival shapes ({!Workload.Arrival.validate_shape}) and
      churn schedules ({!Workload.Churn.validate}), and churn combined
      with an open-loop arrival process;
    - negative warmup or think time, or a non-positive measurement
      window. *)

val validate_exn : Harness.Scenario.config -> Harness.Scenario.config
(** {!validate}, raising [Invalid_argument] on rejection. *)

val validate_or_exit : Harness.Scenario.config -> Harness.Scenario.config
(** {!validate} for command-line front ends: print the message to
    stderr and [exit 2] on rejection, the exit code every bench
    executable reserves for usage errors. *)

val digest : Harness.Scenario.config -> string
(** Hex digest of the configuration's structural content. Two configs
    digest equal iff they are bit-identical data, so the digest
    certifies that a DSL pipeline reproduces a hand-rolled legacy
    record exactly — the presets regression-test themselves with it —
    and gives JSON reports a stable name for "the same cell". *)

val preset : string -> Builder.t
(** [preset name] is the canonical configuration of the named mode
    (["rapilog"], ["native-sync"], … — {!Harness.Scenario.mode_name}
    spellings): {!Harness.Scenario.default} with that mode selected,
    digest-identical to the legacy hand-rolled record. One preset is
    not a mode: ["rapilog-replicated"] (RapiLog-R) is [Rapilog_quorum]
    with one replica and [quorum = 1]. Raises [Invalid_argument] for
    unknown names, listing the valid ones. *)

val preset_names : string list
(** The nine preset names: one per mode in
    {!Harness.Scenario.all_modes} order, with ["rapilog-replicated"]
    right after ["rapilog"]. *)

(** The open-loop workload library: named load shapes over the
    builder, each a [Builder.t -> Builder.t] pipeline stage. Every
    shape is driven by {!Workload.Arrival} or {!Workload.Churn} — pure
    functions of (seed, time) — so each composes with the crash-surface
    sweep and the parallel fan-out without perturbing determinism.

    The presets read the builder's {e current} warmup/duration to place
    their bursts inside the measurement window, so set timing first:
    [start () |> duration (Time.ms 600) |> Workloads.flash_crowd]. *)
module Workloads : sig
  val flash_crowd : Builder.t -> Builder.t
  (** A flash crowd over the small update-only microbenchmark: steady
      400 arrivals/s stepping ×8 a quarter of the way into the
      measurement window, decaying back over a fifth of the window.
      Open loop, 16 workers — a saturating burst whose backlog shows up
      as sojourn time. *)

  val diurnal : Builder.t -> Builder.t
  (** Sinusoidal day/night arrivals: mean 400/s, amplitude 0.8, two
      full cycles across warmup plus measurement. Open loop, 16
      workers. *)

  val client_churn : Builder.t -> Builder.t
  (** An elastic closed-loop fleet: 16 clients, half joined at any
      instant, staggered join/leave cycles of half the measurement
      window. *)

  val hot_key : Builder.t -> Builder.t
  (** Zipf hot-key skew under steady open-loop load: YCSB over 4096
      keys at theta 1.2 (most traffic on a handful of keys), 20% reads,
      400 arrivals/s. *)

  val steady_twin : Builder.t -> Builder.t
  (** The control cell for a shaped workload: same generator, same key
      space, but offered steadily — a flash crowd or diurnal arrival
      collapses to a homogeneous Poisson at its base/mean rate, and
      churn is removed. Degradation gates compare a shaped cell against
      its steady twin. *)

  val all : (string * (Builder.t -> Builder.t)) list
  (** The four shapes above by name, in the order the scenario grid
      enumerates them. *)
end
