(* One steady run of a scenario, driven phase by phase from outside the
   library so each phase can be timed on the host clock:

     Scenario.build -> loader -> warm-up -> timed Sim.step loop
       -> Power_domain.cut and settle -> Recovery.run -> Audit.check

   The client side is the benchmark's own (closed-loop clients through
   Workload.Client, or an open-loop dispatcher onto a worker pool) so
   that write commits and read-only transactions are timed separately.
   Every acknowledgement still goes through Harness.Driver.record_ack,
   the record the durability audit compares recovery against.

   Everything in [sim] is a pure function of the scenario config; the
   traced run must reproduce it bit for bit. *)

open Desim
module S = Harness.Scenario

type host = {
  build_s : float;  (** Scenario.build *)
  load_s : float;  (** loader phase *)
  warmup_s : float;
  loop_s : float;  (** the timed Sim.step loop over the window *)
  cut_s : float;  (** Power_domain.cut and settle *)
  recovery_s : float;  (** one Dbms.Recovery.run, median of the repeats *)
  recoveries_s : float;  (** every repeat of Dbms.Recovery.run, with the checks between *)
  recovery_total_s : float;  (** the repeats of Dbms.Recovery.run alone *)
  recoveries : int;  (** how many repeats *)
  audit_s : float;  (** Harness.Audit.check *)
  total_s : float;  (** wall-clock of the whole run, for reconciliation *)
}

let setup_s h = h.build_s +. h.load_s +. h.warmup_s

type logger = { acked_writes : int; drain_writes : int; stalls : int; max_buffered : int }

type sim = {
  write_lat : float array;  (** write-commit latencies in the window, µs, sorted *)
  read_lat : float array;  (** read-only transaction latencies, µs, sorted *)
  window_s : float;
  arrivals : int;  (** open-loop arrivals inside the window; 0 closed loop *)
  expected_arrivals : float;  (** closed form for the same interval *)
  window_events : int;  (** events executed by the timed loop *)
  max_pending : int;
  lost : int;  (** acknowledged write transactions recovery did not find *)
  state_exact : bool;
  diff_count : int;
  invariant_violations : int;
  drain_ns : int;  (** power-fail to empty trusted buffer; -1 if none *)
  holdup_ns : int;
  durable_records : int;
  redo_applied : int;
  undo_applied : int;
  pool_hits : int;
  pool_misses : int;
  pool_evictions : int;
  aborts : int;
  logger : logger option;
  log_writes : int;
  log_bytes : int;  (** bytes written to the log device *)
  log_flushes : int;
  log_busy_ns : int;
  log_write_p50_us : float;
  data_writes : int;
  end_ns : int;
}

type run = {
  sim : sim;
  host : host;  (** wall-clock seconds *)
  window : Window.registry option;  (** registry activity inside the window *)
  whole : Window.registry option;  (** registry activity over the whole run *)
  records : (Dbms.Log_record.t * Dbms.Lsn.t) list;
      (** the recovered log, kept with [~keep_records:true] *)
}

let committed s = Array.length s.write_lat + Array.length s.read_lat

(* Spawn the load. [on_ack] sees every acknowledgement with the latency
   the client observed; [on_arrival] every open-loop arrival instant. *)
let spawn_load (built : S.built) ~on_ack ~on_arrival =
  let config = built.S.config in
  let sim = built.S.sim in
  let engine = built.S.engine in
  let next () = built.S.generator.S.next_txn () in
  match config.S.arrival with
  | Workload.Arrival.Closed_loop ->
      ignore
        (Workload.Client.spawn ~vmm:built.S.vmm
           { Workload.Client.think_time = config.S.think_time }
           ~count:config.S.clients
           ~gen:(fun ~client:_ -> next ())
           ~engine
           ~on_commit:(fun ~client:_ result -> on_ack result))
  | Workload.Arrival.Open_loop shape ->
      (* Latency runs from arrival, so queue wait is included. *)
      let sampler = Workload.Arrival.create (Sim.rng sim) shape in
      let queue = Channel.create sim in
      let t0 = Sim.now sim in
      ignore
        (Hypervisor.Vmm.spawn_guest built.S.vmm ~name:"arrivals" (fun () ->
             while true do
               let since = Time.diff (Sim.now sim) t0 in
               Process.sleep (Workload.Arrival.next_gap sampler ~since);
               on_arrival (Sim.now sim);
               Channel.send queue (Sim.now sim)
             done));
      for worker = 0 to config.S.clients - 1 do
        ignore
          (Hypervisor.Vmm.spawn_guest built.S.vmm
             ~name:(Printf.sprintf "worker-%d" worker)
             (fun () ->
               while true do
                 let arrived = Channel.recv queue in
                 let result = Dbms.Engine.exec engine (next ()) in
                 on_ack { result with Dbms.Engine.latency = Time.diff (Sim.now sim) arrived }
               done))
      done

let step_until sim flag = while (not !flag) && Sim.step sim do () done

let run ?registry ?(keep_records = false) ?(recoveries = 1) (config : S.config) =
  let now = Unix.gettimeofday in
  let wrap f = match registry with Some reg -> Metrics.with_recording reg f | None -> f () in
  wrap @@ fun () ->
  let t_start = now () in
  let built = S.build config in
  let t_built = now () in
  let sim = built.S.sim in
  let monitor = Option.map (Rapilog.Invariants.attach sim) built.S.logger in
  let track = Harness.Driver.make_tracking () in
  let writes = Stats.Sample.create () and reads = Stats.Sample.create () in
  let arrivals = ref 0 and expected = ref 0. in
  let loaded = ref false and opened = ref false and closed = ref false in
  let window = ref (Time.zero, Time.zero) in
  let in_window t =
    let ws, we = !window in
    !loaded && Time.(ws <= t) && Time.(t < we)
  in
  let on_ack (result : Dbms.Engine.txn_result) =
    Harness.Driver.record_ack track sim result;
    if in_window (Sim.now sim) then
      Stats.Sample.add_span (if result.Dbms.Engine.writes = [] then reads else writes)
        result.Dbms.Engine.latency
  in
  let on_arrival t = if in_window t then incr arrivals in
  Harness.Driver.spawn_loader built track ~after_load:(fun () ->
      let t0 = Sim.now sim in
      let ws = Time.add t0 config.S.warmup in
      let we = Time.add ws config.S.duration in
      window := (ws, we);
      loaded := true;
      (match config.S.arrival with
      | Workload.Arrival.Open_loop shape ->
          let at t = Workload.Arrival.expected_arrivals shape ~until:(Time.diff t t0) in
          expected := at we -. at ws
      | Workload.Arrival.Closed_loop -> ());
      spawn_load built ~on_ack ~on_arrival;
      Sim.schedule_at sim ws (fun () -> opened := true);
      Sim.schedule_at sim we (fun () -> closed := true));
  step_until sim loaded;
  let t_loaded = now () in
  step_until sim opened;
  let snapshot () = Option.map Window.capture registry in
  let at_open = snapshot () in
  let events_open = Sim.events_executed sim in
  let t_opened = now () in
  step_until sim closed;
  let t_closed = now () in
  let window_events = Sim.events_executed sim - events_open in
  let at_close = snapshot () in
  if not !closed then failwith "simulation drained before the window closed";
  (* End of run: a mains power cut. Just before the hold-up window
     expires the guest halts; the invariant monitor is stopped once the
     devices are dead so the queue can drain. *)
  let holdup = ref Time.zero_span in
  Power.Power_domain.on_power_fail built.S.power (fun ~window ->
      holdup := window;
      let dead = Time.add (Sim.now sim) window in
      Sim.schedule_at sim (Time.add dead (Time.ns (-1000))) (fun () ->
          Hypervisor.Vmm.crash_guest built.S.vmm);
      Sim.schedule_at sim (Time.add dead (Time.ms 2)) (fun () ->
          Option.iter Rapilog.Invariants.stop monitor));
  let cut_at = Sim.now sim in
  Power.Power_domain.cut built.S.power;
  let drain_ns =
    match built.S.logger with
    | None -> -1
    | Some logger ->
        let empty () = Rapilog.Trusted_logger.buffered_bytes logger = 0 in
        while (not (empty ())) && Sim.step sim do () done;
        if empty () then Time.span_to_ns (Time.diff (Sim.now sim) cut_at) else -1
  in
  Sim.run sim;
  let t_settled = now () in
  if Power.Power_domain.dead_at built.S.power = None then failwith "power cut did not complete";
  (* Recovery is a pure function of the media, so it is run [recoveries]
     times for more timed work per unit, and every repeat must agree with
     the first. The count is fixed, so every unit does the same work. *)
  let log_device = S.recovery_log_device built in
  let recover () =
    let t0 = now () in
    let r =
      Dbms.Recovery.run ~log_device ~data_device:built.S.data_physical
        ~wal_config:built.S.wal_config ~pool_config:config.S.pool
    in
    (r, now () -. t0)
  in
  let recovery, first = recover () in
  let times = ref [ first ] in
  while List.length !times < recoveries do
    let again, t = recover () in
    if Dbms.Recovery.stats again <> Dbms.Recovery.stats recovery then
      failwith "repeated recovery over the same media differs";
    times := t :: !times
  done;
  let t_recovered = now () in
  let audit =
    Harness.Audit.check ~model:track.Harness.Driver.model ~acked:track.Harness.Driver.acked
      ~recovery
  in
  let t_audited = now () in
  let log_stats = Storage.Block.stats built.S.log_physical in
  let data_writes =
    Array.fold_left
      (fun acc dev -> acc + Storage.Disk_stats.writes (Storage.Block.stats dev))
      0 built.S.data_members
  in
  let durability = audit.Harness.Audit.durability in
  let sim_result =
    {
      write_lat = Stats.Sample.to_array writes;
      read_lat = Stats.Sample.to_array reads;
      window_s = Time.span_to_float_sec config.S.duration;
      arrivals = !arrivals;
      expected_arrivals = !expected;
      window_events;
      max_pending = Sim.max_pending sim;
      lost = List.length durability.Rapilog.Durability.lost;
      state_exact = audit.Harness.Audit.state_exact;
      diff_count = audit.Harness.Audit.diff_count;
      invariant_violations =
        (match monitor with
        | Some m -> List.length (Rapilog.Invariants.violations m)
        | None -> 0);
      drain_ns;
      holdup_ns = Time.span_to_ns !holdup;
      durable_records = recovery.Dbms.Recovery.durable_records;
      redo_applied = recovery.Dbms.Recovery.redo_applied;
      undo_applied = recovery.Dbms.Recovery.undo_applied;
      pool_hits = Dbms.Buffer_pool.hits built.S.pool;
      pool_misses = Dbms.Buffer_pool.misses built.S.pool;
      pool_evictions = Dbms.Buffer_pool.evictions built.S.pool;
      aborts = Dbms.Engine.aborted_count built.S.engine;
      logger =
        Option.map
          (fun l ->
            {
              acked_writes = Rapilog.Trusted_logger.acked_writes l;
              drain_writes = Rapilog.Trusted_logger.drain_writes l;
              stalls = Rapilog.Trusted_logger.backpressure_stalls l;
              max_buffered = Rapilog.Trusted_logger.max_buffered_bytes l;
            })
          built.S.logger;
      log_writes = Storage.Disk_stats.writes log_stats;
      log_bytes =
        Storage.Disk_stats.sectors_written log_stats
        * (Storage.Block.info built.S.log_physical).Storage.Block.sector_size;
      log_flushes = Storage.Disk_stats.flushes log_stats;
      log_busy_ns = Time.span_to_ns (Storage.Disk_stats.busy log_stats);
      log_write_p50_us = Stats.Sample.percentile (Storage.Disk_stats.write_service log_stats) 50.;
      data_writes;
      end_ns = Time.to_ns (Sim.now sim);
    }
  in
  let t_end = now () in
  let window =
    match (at_open, at_close) with
    | Some opened, Some closed -> Some (Window.between ~opened ~closed)
    | _ -> None
  in
  {
    sim = sim_result;
    host =
      {
        build_s = t_built -. t_start;
        load_s = t_loaded -. t_built;
        warmup_s = t_opened -. t_loaded;
        loop_s = t_closed -. t_opened;
        cut_s = t_settled -. t_closed;
        recovery_s = Probes.median !times;
        recoveries_s = t_recovered -. t_settled;
        recovery_total_s = List.fold_left ( +. ) 0. !times;
        recoveries = List.length !times;
        audit_s = t_audited -. t_recovered;
        total_s = t_end -. t_start;
      };
    window;
    whole = Option.map Window.capture registry;
    records = (if keep_records then recovery.Dbms.Recovery.records else []);
  }

(* What the output check demands of every steady run. *)
let failures s =
  List.filter_map Fun.id
    [
      (if s.lost > 0 then Some (Printf.sprintf "%d acknowledged commits lost" s.lost) else None);
      (if not s.state_exact then
         Some (Printf.sprintf "recovered state differs at %d keys" s.diff_count)
       else None);
      (if s.invariant_violations > 0 then
         Some (Printf.sprintf "%d trusted-logger invariant violations" s.invariant_violations)
       else None);
      (if Array.length s.write_lat = 0 then Some "no write commits in the window" else None);
    ]

(* Bit-identity of two runs' simulated results. *)
let digest s = Digest.to_hex (Digest.string (Marshal.to_string s [ Marshal.No_sharing ]))
