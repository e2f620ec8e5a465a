open Desim

type steady_result = {
  mode : Scenario.mode;
  clients : int;
  committed_in_window : int;
  throughput : float;
  latency_mean_us : float;
  latency_p50_us : float;
  latency_p95_us : float;
  latency_p99_us : float;
  physical_log_writes : int;
  physical_log_sectors : int;
  wal_forces : int;
  force_mean_bytes : float;
  log_bytes_per_txn : float;
  logger_stats : logger_stats option;
  total_committed : int;
}

and logger_stats = {
  acked_writes : int;
  drain_writes : int;
  max_buffered : int;
  stalls : int;
}

type failure_kind = Power_cut | Os_crash

let failure_name = function Power_cut -> "power-cut" | Os_crash -> "os-crash"

type failure_result = {
  kind : failure_kind;
  fmode : Scenario.mode;
  acked : int;
  audit : Audit.t;
  cut_at : Time.t;
  durable_records : int;
  redo_applied : int;
  undo_applied : int;
  losers : int;
  buffered_at_cut : int option;
  holdup_window : Time.span option;
  invariant_violations : int;
      (* from the runtime monitor attached to the trusted logger; 0 when
         no logger is present *)
}

(* The client-side tracking, loader and closed-loop clients live in
   {!Driver}, shared with the crash-surface explorer. *)
open Driver

let logger_stats_of logger =
  {
    acked_writes = Rapilog.Trusted_logger.acked_writes logger;
    drain_writes = Rapilog.Trusted_logger.drain_writes logger;
    max_buffered = Rapilog.Trusted_logger.max_buffered_bytes logger;
    stalls = Rapilog.Trusted_logger.backpressure_stalls logger;
  }

let run_steady config =
  let built = Scenario.build config in
  let sim = built.Scenario.sim in
  let track = make_tracking () in
  let stop = ref false in
  spawn_loader built track ~after_load:(fun () ->
      let start = Time.add (Sim.now sim) config.Scenario.warmup in
      let finish = Time.add start config.Scenario.duration in
      track.window_start <- Some start;
      track.window_end <- Some finish;
      spawn_clients built track;
      Sim.schedule_at sim finish (fun () -> stop := true));
  while (not !stop) && Sim.step sim do () done;
  let log_stats = Storage.Block.stats built.Scenario.log_physical in
  let duration_s = Time.span_to_float_sec config.Scenario.duration in
  {
    mode = config.Scenario.mode;
    clients = config.Scenario.clients;
    committed_in_window = track.in_window;
    throughput = float_of_int track.in_window /. duration_s;
    latency_mean_us = Stats.Sample.mean track.latencies;
    latency_p50_us = Stats.Sample.percentile track.latencies 50.;
    latency_p95_us = Stats.Sample.percentile track.latencies 95.;
    latency_p99_us = Stats.Sample.percentile track.latencies 99.;
    physical_log_writes = Storage.Disk_stats.writes log_stats;
    physical_log_sectors = Storage.Disk_stats.sectors_written log_stats;
    wal_forces = Dbms.Wal.forces built.Scenario.wal;
    force_mean_bytes = Stats.Sample.mean (Dbms.Wal.force_bytes built.Scenario.wal);
    log_bytes_per_txn = Dbms.Engine.log_bytes_per_txn built.Scenario.engine;
    logger_stats = Option.map logger_stats_of built.Scenario.logger;
    total_committed = Dbms.Engine.committed_count built.Scenario.engine;
  }

let run_steady_metrics config =
  let registry = Metrics.create () in
  let result = Metrics.with_recording registry (fun () -> run_steady config) in
  (result, registry)

let run_failure config ~kind ~after =
  let built = Scenario.build config in
  let sim = built.Scenario.sim in
  let track = make_tracking () in
  let cut_at = ref Time.zero in
  let buffered_at_cut = ref None in
  (* Runtime verification rides along with every failure experiment: the
     monitor must be stopped once the failure sequence settles or its
     self-rescheduling would keep the event loop alive forever. *)
  let monitor = Option.map (Rapilog.Invariants.attach sim) built.Scenario.logger in
  let stop_monitor () = Option.iter Rapilog.Invariants.stop monitor in
  (match kind with
  | Power_cut ->
      (* At the power-fail instant, capture the logger's exposure; just
         before hold-up expiry, the machine stops executing (the guest
         halts), so nothing is acknowledged at or after the instant the
         devices lose power. *)
      Power.Power_domain.on_power_fail built.Scenario.power (fun ~window ->
          cut_at := Sim.now sim;
          buffered_at_cut :=
            Option.map Rapilog.Trusted_logger.buffered_bytes built.Scenario.logger;
          let dead = Time.add (Sim.now sim) window in
          Sim.schedule_at sim
            (Time.add dead (Time.ns (-1000)))
            (fun () -> Hypervisor.Vmm.crash_guest built.Scenario.vmm);
          Sim.schedule_at sim (Time.add dead (Time.ms 2)) stop_monitor)
  | Os_crash -> ());
  spawn_loader built track ~after_load:(fun () ->
      spawn_clients built track;
      let failure_at = Time.add (Sim.now sim) after in
      match kind with
      | Power_cut -> Power.Power_domain.cut_at built.Scenario.power failure_at
      | Os_crash ->
          Sim.schedule_at sim failure_at (fun () ->
              cut_at := Sim.now sim;
              Hypervisor.Vmm.crash_guest built.Scenario.vmm;
              (* The logger outlives the guest: wait for its drain. *)
              match built.Scenario.logger with
              | Some logger ->
                  ignore
                    (Process.spawn sim ~name:"quiesce" (fun () ->
                         Rapilog.Trusted_logger.quiesce logger;
                         stop_monitor ()))
              | None -> stop_monitor ()));
  Sim.run sim;
  (match kind with
  | Power_cut -> assert (Power.Power_domain.dead_at built.Scenario.power <> None)
  | Os_crash -> ());
  let recovery =
    Dbms.Recovery.run
      ~log_device:(Scenario.recovery_log_device built)
      ~data_device:built.Scenario.data_physical
      ~wal_config:built.Scenario.wal_config
      ~pool_config:built.Scenario.config.Scenario.pool
  in
  let audit = Audit.check ~model:track.model ~acked:track.acked ~recovery in
  {
    kind;
    fmode = config.Scenario.mode;
    acked = List.length track.acked;
    audit;
    cut_at = !cut_at;
    durable_records = recovery.Dbms.Recovery.durable_records;
    redo_applied = recovery.Dbms.Recovery.redo_applied;
    undo_applied = recovery.Dbms.Recovery.undo_applied;
    losers = List.length recovery.Dbms.Recovery.losers;
    buffered_at_cut = !buffered_at_cut;
    holdup_window =
      (match kind with
      | Power_cut -> Some (Power.Power_domain.window built.Scenario.power)
      | Os_crash -> None);
    invariant_violations =
      (match monitor with
      | Some monitor -> List.length (Rapilog.Invariants.violations monitor)
      | None -> 0);
  }

(* Batch entry points: each config is an independent world keyed by its
   seed, so sweeps fan out across domains via {!Parallel.map} with
   results (and their order) identical to a serial run. *)

let run_steady_batch ?jobs configs = Parallel.map ?jobs run_steady configs

let run_failure_batch ?jobs ~kind specs =
  Parallel.map ?jobs (fun (config, after) -> run_failure config ~kind ~after) specs

let sweep ?jobs ~config ~clients ~modes () =
  let cells =
    List.concat_map
      (fun n -> List.map (fun mode -> { config with Scenario.mode; clients = n }) modes)
      clients
  in
  let results = run_steady_batch ?jobs cells in
  let per_client = List.length modes in
  let rec take_drop n xs =
    if n = 0 then ([], xs)
    else
      match xs with
      | [] -> ([], [])
      | x :: rest ->
          let taken, dropped = take_drop (n - 1) rest in
          (x :: taken, dropped)
  in
  let rec regroup clients results =
    match clients with
    | [] -> []
    | n :: rest ->
        let row, remainder = take_drop per_client results in
        (n, row) :: regroup rest remainder
  in
  regroup clients results

let durability_ok result =
  let safe =
    Rapilog.Durability.holds result.audit.Audit.durability
    && result.invariant_violations = 0
  in
  match (Scenario.mode_is_durable result.fmode, result.kind) with
  | (`Always | `Minority_loss_too), (Power_cut | Os_crash) ->
      safe && result.audit.Audit.state_exact
  | `Os_crash_only, Os_crash -> safe && result.audit.Audit.state_exact
  | `Os_crash_only, Power_cut -> result.invariant_violations = 0  (* loss permitted *)
  | `Never, (Power_cut | Os_crash) -> result.invariant_violations = 0
