(* Integration tests through the experiment harness: scenario wiring,
   steady-state shape properties, and the durability matrix the paper's
   headline claims rest on. These are slower than the unit suites (each
   runs a full simulated machine) so durations are kept short. *)

open Desim
open Testu
open Harness

let quick_config =
  {
    Scenario.default with
    Scenario.clients = 4;
    warmup = Time.ms 100;
    duration = Time.ms 600;
    workload =
      Scenario.Micro { Workload.Microbench.default_config with Workload.Microbench.keys = 500 };
  }

let with_mode mode = { quick_config with Scenario.mode }

(* -- Scenario wiring ------------------------------------------------------ *)

let mode_names_roundtrip () =
  List.iter
    (fun mode ->
      Alcotest.(check bool)
        (Scenario.mode_name mode)
        true
        (Scenario.mode_of_name (Scenario.mode_name mode) = Some mode))
    Scenario.all_modes;
  Alcotest.(check bool) "unknown" true (Scenario.mode_of_name "nonsense" = None)

let durability_promises () =
  Alcotest.(check bool) "rapilog always durable" true
    (Scenario.mode_is_durable Scenario.Rapilog = `Always);
  Alcotest.(check bool) "quorum rapilog survives minority loss too" true
    (Scenario.mode_is_durable Scenario.Rapilog_quorum = `Minority_loss_too);
  Alcotest.(check bool) "wcache unsafe on power" true
    (Scenario.mode_is_durable Scenario.Unsafe_wcache = `Os_crash_only);
  Alcotest.(check bool) "async never" true
    (Scenario.mode_is_durable Scenario.Async_commit = `Never)

let build_wires_rapilog () =
  let built = Scenario.build (with_mode Scenario.Rapilog) in
  Alcotest.(check bool) "logger present" true (built.Scenario.logger <> None);
  let model = (Storage.Block.info built.Scenario.log_attached).Storage.Block.model in
  Alcotest.(check bool)
    ("attached log device is the rapilog frontend: " ^ model)
    true
    (String.length model >= 14 && String.sub model 0 14 = "virtio:rapilog")

let build_wires_native () =
  let built = Scenario.build (with_mode Scenario.Native_sync) in
  Alcotest.(check bool) "no logger" true (built.Scenario.logger = None);
  Alcotest.(check bool) "wal writes the raw device" true
    (built.Scenario.log_attached == built.Scenario.log_physical)

let build_wires_wcache () =
  let built = Scenario.build (with_mode Scenario.Unsafe_wcache) in
  let model = (Storage.Block.info built.Scenario.log_attached).Storage.Block.model in
  Alcotest.(check bool) ("write cache wrapped: " ^ model) true
    (String.length model > 7
    && String.sub model (String.length model - 7) 7 = "+wcache")

let build_virt_uses_virtio () =
  let built = Scenario.build (with_mode Scenario.Virt_sync) in
  let model = (Storage.Block.info built.Scenario.log_attached).Storage.Block.model in
  Alcotest.(check bool) ("virtio path: " ^ model) true
    (String.length model >= 7 && String.sub model 0 7 = "virtio:")

let hdd_streaming_bandwidth_sane () =
  let bw = Scenario.hdd_streaming_bandwidth Storage.Hdd.default_7200rpm in
  (* 1000 sectors/track at 120 rev/s = ~61 MB/s. *)
  Alcotest.(check bool) (Printf.sprintf "%.0f B/s" bw) true (bw > 50e6 && bw < 75e6)

(* -- Steady-state shapes ---------------------------------------------------- *)

let steady_commits_something () =
  let r = Experiment.run_steady (with_mode Scenario.Rapilog) in
  Alcotest.(check bool)
    (Printf.sprintf "committed %d" r.Experiment.committed_in_window)
    true
    (r.Experiment.committed_in_window > 50);
  Alcotest.(check bool) "latency sane" true (r.Experiment.latency_p50_us > 0.)

let steady_rapilog_beats_sync_on_disk () =
  (* The headline: ack-from-buffer commits must be far faster than
     ack-from-media on a rotational disk. *)
  let rapilog = Experiment.run_steady (with_mode Scenario.Rapilog) in
  let native = Experiment.run_steady (with_mode Scenario.Native_sync) in
  Alcotest.(check bool)
    (Printf.sprintf "rapilog %.0f > 2x native %.0f" rapilog.Experiment.throughput
       native.Experiment.throughput)
    true
    (rapilog.Experiment.throughput > 2. *. native.Experiment.throughput)

let steady_rapilog_close_to_unsafe () =
  (* "Performance never degraded": RapiLog keeps pace with the unsafe
     async-commit upper bound (allow it the virtualisation overhead). *)
  let rapilog = Experiment.run_steady (with_mode Scenario.Rapilog) in
  let unsafe = Experiment.run_steady (with_mode Scenario.Async_commit) in
  Alcotest.(check bool)
    (Printf.sprintf "rapilog %.0f >= 0.6x async %.0f" rapilog.Experiment.throughput
       unsafe.Experiment.throughput)
    true
    (rapilog.Experiment.throughput >= 0.6 *. unsafe.Experiment.throughput)

let steady_sync_latency_is_rotational () =
  let native = Experiment.run_steady (with_mode Scenario.Native_sync) in
  (* Commit latency must be dominated by the ~8.3ms rotation. *)
  Alcotest.(check bool)
    (Printf.sprintf "p50 %.0fus >= 4ms" native.Experiment.latency_p50_us)
    true
    (native.Experiment.latency_p50_us >= 4000.)

let steady_rapilog_latency_is_sub_ms () =
  let rapilog = Experiment.run_steady (with_mode Scenario.Rapilog) in
  Alcotest.(check bool)
    (Printf.sprintf "p50 %.0fus < 2ms" rapilog.Experiment.latency_p50_us)
    true
    (rapilog.Experiment.latency_p50_us < 2000.)

let steady_logger_stats_present_only_for_rapilog () =
  let rapilog = Experiment.run_steady (with_mode Scenario.Rapilog) in
  let native = Experiment.run_steady (with_mode Scenario.Native_sync) in
  Alcotest.(check bool) "rapilog has logger stats" true
    (rapilog.Experiment.logger_stats <> None);
  Alcotest.(check bool) "native does not" true (native.Experiment.logger_stats = None);
  match rapilog.Experiment.logger_stats with
  | Some stats ->
      Alcotest.(check bool) "drain coalesces" true
        (stats.Experiment.drain_writes < stats.Experiment.acked_writes)
  | None -> ()

let steady_deterministic () =
  let a = Experiment.run_steady (with_mode Scenario.Rapilog) in
  let b = Experiment.run_steady (with_mode Scenario.Rapilog) in
  Alcotest.(check int) "bit-identical reruns" a.Experiment.committed_in_window
    b.Experiment.committed_in_window

let steady_more_clients_more_sync_throughput () =
  (* Group commit: sync throughput grows with client count on a disk. *)
  let at clients =
    (Experiment.run_steady { (with_mode Scenario.Native_sync) with Scenario.clients })
      .Experiment.throughput
  in
  let one = at 1 and sixteen = at 16 in
  Alcotest.(check bool)
    (Printf.sprintf "scales with batching (%.0f -> %.0f)" one sixteen)
    true
    (sixteen > 2. *. one)

(* -- Failure matrix ----------------------------------------------------------- *)

let failure_config mode seed = { (with_mode mode) with Scenario.seed }

let run_power_cut mode seed =
  Experiment.run_failure (failure_config mode seed) ~kind:Experiment.Power_cut
    ~after:(Time.ms 300)

let run_os_crash mode seed =
  Experiment.run_failure (failure_config mode seed) ~kind:Experiment.Os_crash
    ~after:(Time.ms 300)

let power_cut_safe_modes_lose_nothing () =
  List.iter
    (fun mode ->
      List.iter
        (fun seed ->
          let r = run_power_cut mode seed in
          let lost = r.Experiment.audit.Audit.durability.Rapilog.Durability.lost in
          if lost <> [] then
            Alcotest.failf "%s lost %d acked txns on power cut (seed %Ld)"
              (Scenario.mode_name mode) (List.length lost) seed;
          Alcotest.(check bool) "state exact" true r.Experiment.audit.Audit.state_exact)
        [ 1L; 2L; 3L ])
    [
      Scenario.Native_sync;
      Scenario.Virt_sync;
      Scenario.Rapilog;
      Scenario.Wcache_flush;
    ]

let power_cut_rapilog_had_buffered_data () =
  (* The interesting case: there was data in flight, and it still made it. *)
  let r = run_power_cut Scenario.Rapilog 4L in
  Alcotest.(check bool) "acked plenty" true (r.Experiment.acked > 100);
  Alcotest.(check bool) "guarantee held" true (Experiment.durability_ok r)

let power_cut_unsafe_wcache_loses () =
  let lost_somewhere =
    List.exists
      (fun seed ->
        let r = run_power_cut Scenario.Unsafe_wcache seed in
        r.Experiment.audit.Audit.durability.Rapilog.Durability.lost <> [])
      [ 1L; 2L; 3L ]
  in
  Alcotest.(check bool) "write cache loses acked commits" true lost_somewhere

let power_cut_async_commit_loses () =
  let lost_somewhere =
    List.exists
      (fun seed ->
        let r = run_power_cut Scenario.Async_commit seed in
        r.Experiment.audit.Audit.durability.Rapilog.Durability.lost <> [])
      [ 1L; 2L; 3L ]
  in
  Alcotest.(check bool) "async commit loses acked commits" true lost_somewhere

let os_crash_matrix () =
  (* Guest-OS crash: everything except async-commit must lose nothing
     (the disk cache survives an OS crash; unforced WAL does not). *)
  List.iter
    (fun mode ->
      let r = run_os_crash mode 5L in
      let lost = r.Experiment.audit.Audit.durability.Rapilog.Durability.lost in
      if lost <> [] then
        Alcotest.failf "%s lost %d acked txns on OS crash" (Scenario.mode_name mode)
          (List.length lost))
    [
      Scenario.Native_sync;
      Scenario.Virt_sync;
      Scenario.Rapilog;
      Scenario.Wcache_flush;
      Scenario.Unsafe_wcache;
    ]

let os_crash_async_commit_loses () =
  let lost_somewhere =
    List.exists
      (fun seed ->
        let r = run_os_crash Scenario.Async_commit seed in
        r.Experiment.audit.Audit.durability.Rapilog.Durability.lost <> [])
      [ 1L; 2L; 3L ]
  in
  Alcotest.(check bool) "async commit loses on OS crash" true lost_somewhere

let rapilog_os_crash_with_tpcc () =
  (* Same containment story under the richer workload. *)
  let config =
    {
      (failure_config Scenario.Rapilog 6L) with
      Scenario.workload = Scenario.Tpcc Workload.Tpcc_lite.default_config;
    }
  in
  let r = Experiment.run_failure config ~kind:Experiment.Os_crash ~after:(Time.ms 300) in
  Alcotest.(check bool) "durability ok" true (Experiment.durability_ok r);
  Alcotest.(check bool) "state exact" true r.Experiment.audit.Audit.state_exact

let durability_ok_semantics () =
  let r = run_power_cut Scenario.Unsafe_wcache 1L in
  (* Losing is fine for a mode whose promise excludes power cuts. *)
  Alcotest.(check bool) "lossy but within its promise" true (Experiment.durability_ok r)

let failure_reports_holdup_window () =
  let r = run_power_cut Scenario.Rapilog 7L in
  match r.Experiment.holdup_window with
  | Some window -> check_span "window from psu" (Time.ms 300) window
  | None -> Alcotest.fail "power cut must report the window"

let suites =
  [
    ( "harness.scenario",
      [
        case "mode names roundtrip" mode_names_roundtrip;
        case "durability promises" durability_promises;
        case "rapilog wiring" build_wires_rapilog;
        case "native wiring" build_wires_native;
        case "write-cache wiring" build_wires_wcache;
        case "virtualised wiring" build_virt_uses_virtio;
        case "hdd streaming bandwidth" hdd_streaming_bandwidth_sane;
      ] );
    ( "harness.steady",
      [
        case "commits something" steady_commits_something;
        case "rapilog beats sync on disk" steady_rapilog_beats_sync_on_disk;
        case "rapilog close to the unsafe bound" steady_rapilog_close_to_unsafe;
        case "sync latency is rotational" steady_sync_latency_is_rotational;
        case "rapilog latency is sub-ms" steady_rapilog_latency_is_sub_ms;
        case "logger stats presence" steady_logger_stats_present_only_for_rapilog;
        case "deterministic reruns" steady_deterministic;
        case "group commit scales sync with clients"
          steady_more_clients_more_sync_throughput;
      ] );
    ( "harness.failures",
      [
        case "power cut: safe modes lose nothing" power_cut_safe_modes_lose_nothing;
        case "power cut: rapilog with buffered data" power_cut_rapilog_had_buffered_data;
        case "power cut: write cache loses" power_cut_unsafe_wcache_loses;
        case "power cut: async commit loses" power_cut_async_commit_loses;
        case "os crash: only async commit loses" os_crash_matrix;
        case "os crash: async commit loses" os_crash_async_commit_loses;
        case "os crash under TPC-C" rapilog_os_crash_with_tpcc;
        case "durability_ok matches promises" durability_ok_semantics;
        case "hold-up window reported" failure_reports_holdup_window;
      ] );
  ]

(* -- Single-disk configuration (appended) ------------------------------------ *)

let single_disk_shares_device () =
  let built =
    Scenario.build { (with_mode Scenario.Rapilog) with Scenario.single_disk = true }
  in
  Alcotest.(check bool) "one physical device" true
    (built.Scenario.log_physical == built.Scenario.data_physical);
  Alcotest.(check bool) "data region offset above the log" true
    (built.Scenario.config.Scenario.pool.Dbms.Buffer_pool.data_start_lba
    >= 1_000_000)

let single_disk_steady_runs () =
  let r =
    Experiment.run_steady
      { (with_mode Scenario.Rapilog) with Scenario.single_disk = true }
  in
  Alcotest.(check bool)
    (Printf.sprintf "commits on a shared disk (%d)" r.Experiment.committed_in_window)
    true
    (r.Experiment.committed_in_window > 50)

let single_disk_durability_after_power_cut () =
  List.iter
    (fun mode ->
      let config =
        { (failure_config mode 11L) with Scenario.single_disk = true }
      in
      let r =
        Experiment.run_failure config ~kind:Experiment.Power_cut ~after:(Time.ms 300)
      in
      let lost = r.Experiment.audit.Audit.durability.Rapilog.Durability.lost in
      if lost <> [] then
        Alcotest.failf "%s lost %d txns on a shared disk" (Scenario.mode_name mode)
          (List.length lost);
      Alcotest.(check bool) "state exact" true r.Experiment.audit.Audit.state_exact)
    [ Scenario.Native_sync; Scenario.Rapilog ]

let single_disk_os_crash_recovers () =
  let config =
    { (failure_config Scenario.Rapilog 12L) with Scenario.single_disk = true }
  in
  let r = Experiment.run_failure config ~kind:Experiment.Os_crash ~after:(Time.ms 300) in
  Alcotest.(check bool) "durability ok" true (Experiment.durability_ok r);
  Alcotest.(check bool) "state exact" true r.Experiment.audit.Audit.state_exact

let ycsb_scenario_runs () =
  let r =
    Experiment.run_steady
      {
        (with_mode Scenario.Rapilog) with
        Scenario.workload =
          Scenario.Ycsb
            { Workload.Ycsb_lite.default_config with Workload.Ycsb_lite.keys = 1000 };
      }
  in
  Alcotest.(check bool) "ycsb commits" true (r.Experiment.committed_in_window > 50)

let single_disk_suite =
  ( "harness.single_disk",
    [
      case "shares one physical device" single_disk_shares_device;
      case "steady state runs" single_disk_steady_runs;
      case "power-cut durability on a shared disk" single_disk_durability_after_power_cut;
      case "os-crash recovery on a shared disk" single_disk_os_crash_recovers;
      case "ycsb workload through the harness" ycsb_scenario_runs;
    ] )

let suites = suites @ [ single_disk_suite ]

(* -- Striped data volume wiring (appended) ------------------------------------- *)

let data_volume_is_striped_by_default () =
  let built = Scenario.build (with_mode Scenario.Rapilog) in
  let model = (Storage.Block.info built.Scenario.data_physical).Storage.Block.model in
  Alcotest.(check bool) ("data volume: " ^ model) true
    (String.length model >= 6 && String.sub model 0 6 = "stripe")

let data_volume_single_spindle_opt_out () =
  let built =
    Scenario.build { (with_mode Scenario.Rapilog) with Scenario.data_spindles = 1 }
  in
  let model = (Storage.Block.info built.Scenario.data_physical).Storage.Block.model in
  Alcotest.(check bool) ("raw device: " ^ model) true
    (String.length model < 6 || String.sub model 0 6 <> "stripe")

let striped_data_failure_audit () =
  let config =
    { (failure_config Scenario.Rapilog 21L) with Scenario.data_spindles = 4 }
  in
  let r = Experiment.run_failure config ~kind:Experiment.Power_cut ~after:(Time.ms 300) in
  Alcotest.(check bool) "durability across a striped data volume" true
    (Experiment.durability_ok r && r.Experiment.audit.Audit.state_exact)

let stripe_suite =
  ( "harness.striped_data",
    [
      case "striped by default" data_volume_is_striped_by_default;
      case "single-spindle opt-out" data_volume_single_spindle_opt_out;
      case "power-cut audit over the stripe" striped_data_failure_audit;
    ] )

let suites = suites @ [ stripe_suite ]

(* -- Parallel fan-out (appended) ---------------------------------------------- *)

let parallel_map_preserves_order () =
  let squares = Parallel.map ~jobs:4 (fun n -> n * n) (List.init 50 Fun.id) in
  Alcotest.(check (list int)) "in submission order"
    (List.init 50 (fun n -> n * n))
    squares

let parallel_map_serial_fallback () =
  (* jobs=1 must not spawn domains: it runs on the calling domain, so
     effects of the caller's context (here: plain closures) behave
     exactly as List.map. *)
  Alcotest.(check (list int)) "jobs=1 degenerates to List.map"
    (List.map succ [ 1; 2; 3 ])
    (Parallel.map ~jobs:1 succ [ 1; 2; 3 ])

let parallel_map_propagates_exceptions () =
  match Parallel.map ~jobs:3 (fun n -> if n = 7 then failwith "boom" else n)
          [ 1; 7; 9 ]
  with
  | _ -> Alcotest.fail "expected the worker failure to re-raise"
  | exception Failure msg -> Alcotest.(check string) "original exception" "boom" msg

let parallel_sweep_equals_serial () =
  (* The tentpole determinism contract: fanning a sweep out across
     domains must be bit-identical to running it serially, because each
     scenario builds its own world from its own seed. *)
  let configs =
    List.concat_map
      (fun mode ->
        List.map
          (fun clients -> { (with_mode mode) with Scenario.clients })
          [ 1; 4 ])
      [ Scenario.Native_sync; Scenario.Rapilog; Scenario.Async_commit ]
  in
  let serial = Experiment.run_steady_batch ~jobs:1 configs in
  let parallel = Experiment.run_steady_batch ~jobs:4 configs in
  Alcotest.(check bool) "bit-identical results" true (serial = parallel)

let parallel_failure_trials_equal_serial () =
  let specs =
    List.init 3 (fun i ->
        ( { (failure_config Scenario.Rapilog (Int64.of_int (31 + i))) with
            Scenario.duration = Time.ms 400 },
          Time.ms (200 + (40 * i)) ))
  in
  let project (r : Experiment.failure_result) =
    (r.Experiment.acked, r.Experiment.durable_records, r.Experiment.redo_applied,
     r.Experiment.losers, Time.to_ns r.Experiment.cut_at)
  in
  let serial =
    Experiment.run_failure_batch ~jobs:1 ~kind:Experiment.Power_cut specs
  in
  let parallel =
    Experiment.run_failure_batch ~jobs:3 ~kind:Experiment.Power_cut specs
  in
  Alcotest.(check bool) "identical failure trials" true
    (List.map project serial = List.map project parallel)

let parallel_suite =
  ( "harness.parallel",
    [
      case "map preserves order" parallel_map_preserves_order;
      case "jobs=1 serial fallback" parallel_map_serial_fallback;
      case "exceptions propagate" parallel_map_propagates_exceptions;
      case "parallel sweep equals serial" parallel_sweep_equals_serial;
      case "parallel failure trials equal serial" parallel_failure_trials_equal_serial;
    ] )

let suites = suites @ [ parallel_suite ]
