(* rapilog_sim: command-line driver for the simulated RapiLog system.

   Subcommands:
     run         steady-state run of one configuration, print metrics
     crash       inject a guest-OS crash, audit durability
     power-cut   inject a mains power cut, audit durability
     modes       list configurations and their durability promises *)

open Cmdliner
open Harness

(* -- shared options ------------------------------------------------------ *)

let mode_conv =
  let parse s =
    match Scenario.mode_of_name s with
    | Some mode -> Ok mode
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown mode %S (one of: %s)" s
               (String.concat ", " (List.map Scenario.mode_name Scenario.all_modes))))
  in
  Arg.conv (parse, fun fmt mode -> Format.pp_print_string fmt (Scenario.mode_name mode))

let mode_arg =
  let doc = "System configuration under test." in
  Arg.(value & opt mode_conv Scenario.Rapilog & info [ "m"; "mode" ] ~docv:"MODE" ~doc)

let clients_arg =
  Arg.(value & opt int 8 & info [ "c"; "clients" ] ~docv:"N" ~doc:"Closed-loop clients.")

let seed_arg =
  Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed; runs are bit-reproducible from it.")

let duration_arg =
  Arg.(value & opt float 2.0 & info [ "d"; "duration" ] ~docv:"SECONDS" ~doc:"Measurement window in simulated seconds.")

let device_arg =
  let doc = "Log/data device: 'hdd' (7200 rpm), 'hdd:RPM', 'ssd', or 'nvme'." in
  Arg.(value & opt string "hdd" & info [ "device" ] ~docv:"DEV" ~doc)

let workload_arg =
  let doc = "Workload: 'tpcc', 'micro', 'ycsb' or 'ycsb:READFRAC'." in
  Arg.(value & opt string "tpcc" & info [ "w"; "workload" ] ~docv:"WL" ~doc)

let single_disk_arg =
  Arg.(value & flag & info [ "single-disk" ] ~doc:"Log and data share one physical device.")

let data_spindles_arg =
  Arg.(value & opt int 4 & info [ "data-spindles" ] ~docv:"N" ~doc:"Disks striped into the data volume.")

let engine_arg =
  let doc = "Engine profile: pg-like, innodb-like or commercial-like." in
  Arg.(value & opt string "pg-like" & info [ "engine" ] ~docv:"PROFILE" ~doc)

let buffer_kib_arg =
  Arg.(value & opt int 8192 & info [ "buffer-kib" ] ~docv:"KIB" ~doc:"Trusted-logger buffer size (KiB).")

let holdup_ms_arg =
  Arg.(value & opt int 300 & info [ "holdup-ms" ] ~docv:"MS" ~doc:"PSU hold-up window (ms).")

let log_streams_arg =
  Arg.(
    value & opt int 1
    & info [ "log-streams" ] ~docv:"N"
        ~doc:"Parallel WAL streams (requires the dedicated-log-device layout).")

let replicas_arg =
  Arg.(
    value & opt int 3
    & info [ "replicas" ] ~docv:"N"
        ~doc:"Replica machines in the rapilog-quorum cluster.")

let quorum_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "quorum" ] ~docv:"K"
        ~doc:
          "Replica acks required to commit in rapilog-quorum mode \
           (default: a majority of the replicas). 0 sends to the \
           replicas without waiting; --replicas 1 --quorum 1 is \
           RapiLog-R's replica-ack configuration.")

let parse_device s =
  match String.split_on_char ':' s with
  | [ "hdd" ] -> Ok (Scenario.Disk Storage.Hdd.default_7200rpm)
  | [ "hdd"; rpm ] -> (
      match int_of_string_opt rpm with
      | Some rpm when rpm > 0 ->
          Ok (Scenario.Disk (Storage.Hdd.config_with_rpm Storage.Hdd.default_7200rpm rpm))
      | Some _ | None -> Error (Printf.sprintf "bad rpm in %S" s))
  | [ "ssd" ] -> Ok (Scenario.Flash Storage.Ssd.default)
  | [ "nvme" ] -> Ok (Scenario.Nvme Storage.Nvme.default)
  | _ -> Error (Printf.sprintf "unknown device %S (hdd, hdd:RPM, ssd or nvme)" s)

let parse_workload s =
  match String.split_on_char ':' s with
  | [ "tpcc" ] -> Ok (Scenario.Tpcc Workload.Tpcc_lite.default_config)
  | [ "micro" ] -> Ok (Scenario.Micro Workload.Microbench.default_config)
  | [ "ycsb" ] -> Ok (Scenario.Ycsb Workload.Ycsb_lite.default_config)
  | [ "ycsb"; frac ] -> (
      match float_of_string_opt frac with
      | Some read_fraction when read_fraction >= 0. && read_fraction <= 1. ->
          Ok
            (Scenario.Ycsb
               { Workload.Ycsb_lite.default_config with Workload.Ycsb_lite.read_fraction })
      | Some _ | None -> Error (Printf.sprintf "bad read fraction in %S" s))
  | _ -> Error (Printf.sprintf "unknown workload %S (tpcc, micro, ycsb[:FRAC])" s)

let parse_engine s =
  match Dbms.Engine_profile.by_name s with
  | Some profile -> Ok profile
  | None -> Error (Printf.sprintf "unknown engine profile %S" s)

let build_config mode clients seed duration device workload engine buffer_kib holdup_ms
    single_disk data_spindles log_streams replicas quorum =
  let ( let* ) = Result.bind in
  let* device = parse_device device in
  let* workload = parse_workload workload in
  let* profile = parse_engine engine in
  let* () =
    if log_streams < 1 then Error "log-streams must be at least 1"
    else if log_streams > 1 && single_disk then
      Error "log-streams requires a dedicated log device (drop --single-disk)"
    else Ok ()
  in
  let* () = if replicas >= 1 then Ok () else Error "replicas must be at least 1" in
  let quorum_k =
    match quorum with Some k -> k | None -> Net.Quorum.majority replicas
  in
  let* () =
    if quorum_k >= 0 && quorum_k <= replicas then Ok ()
    else Error "quorum must satisfy 0 <= K <= replicas"
  in
  Ok
    {
      Scenario.default with
      Scenario.mode;
      single_disk;
      data_spindles;
      log_streams;
      quorum = { Net.Quorum.default with Net.Quorum.replicas; quorum = quorum_k };
      clients;
      seed;
      duration = Desim.Time.span_of_float_sec duration;
      device;
      workload;
      profile;
      logger =
        {
          Rapilog.Trusted_logger.default_config with
          Rapilog.Trusted_logger.buffer_bytes = buffer_kib * 1024;
        };
      psu = Power.Psu.of_window (Desim.Time.ms holdup_ms);
    }

let config_term =
  let open Term in
  const build_config $ mode_arg $ clients_arg $ seed_arg $ duration_arg
  $ device_arg $ workload_arg $ engine_arg $ buffer_kib_arg $ holdup_ms_arg
  $ single_disk_arg $ data_spindles_arg $ log_streams_arg $ replicas_arg
  $ quorum_arg

let or_exit = function
  | Ok v -> v
  | Error msg ->
      prerr_endline ("rapilog_sim: " ^ msg);
      exit 2

(* -- run ------------------------------------------------------------------- *)

let print_steady config (r : Experiment.steady_result) =
  Report.section "steady-state run";
  Report.kv "mode" (Scenario.mode_name config.Scenario.mode);
  if config.Scenario.mode = Scenario.Rapilog_quorum then
    Report.kvf "replicas / quorum" "%d / %d"
      config.Scenario.quorum.Net.Quorum.replicas
      config.Scenario.quorum.Net.Quorum.quorum;
  Report.kv "device" (Scenario.device_name config.Scenario.device);
  Report.kv "engine" config.Scenario.profile.Dbms.Engine_profile.name;
  Report.kvf "clients" "%d" r.Experiment.clients;
  Report.kvf "seed" "%Ld" config.Scenario.seed;
  Report.kvf "throughput" "%.0f txn/s" r.Experiment.throughput;
  Report.kvf "latency mean/p50/p95/p99" "%.0f / %.0f / %.0f / %.0f us"
    r.Experiment.latency_mean_us r.Experiment.latency_p50_us
    r.Experiment.latency_p95_us r.Experiment.latency_p99_us;
  Report.kvf "physical log writes" "%d (%d sectors)" r.Experiment.physical_log_writes
    r.Experiment.physical_log_sectors;
  Report.kvf "wal forces" "%d (mean batch %.0f B)" r.Experiment.wal_forces
    r.Experiment.force_mean_bytes;
  Report.kvf "log bytes per txn" "%.0f" r.Experiment.log_bytes_per_txn;
  match r.Experiment.logger_stats with
  | None -> ()
  | Some stats ->
      Report.kvf "logger acked writes" "%d" stats.Experiment.acked_writes;
      Report.kvf "logger drain writes" "%d (%.1fx coalescing)"
        stats.Experiment.drain_writes
        (float_of_int stats.Experiment.acked_writes
        /. float_of_int (max 1 stats.Experiment.drain_writes));
      Report.kvf "logger high-water mark" "%d KiB" (stats.Experiment.max_buffered / 1024);
      Report.kvf "backpressure stalls" "%d" stats.Experiment.stalls

let run_cmd =
  let action config_result =
    let config = or_exit config_result in
    print_steady config (Experiment.run_steady config)
  in
  Cmd.v (Cmd.info "run" ~doc:"Steady-state run; print throughput and latency.")
    Term.(const action $ config_term)

(* -- failures ----------------------------------------------------------------- *)

let after_arg =
  Arg.(value & opt float 0.5 & info [ "after" ] ~docv:"SECONDS" ~doc:"Inject the failure this long after the load phase.")

let print_failure config (r : Experiment.failure_result) =
  Report.section (Experiment.failure_name r.Experiment.kind ^ " injection");
  Report.kv "mode" (Scenario.mode_name config.Scenario.mode);
  Report.kvf "acked commits" "%d" r.Experiment.acked;
  Report.kvf "recovered" "%d" r.Experiment.audit.Audit.durability.Rapilog.Durability.recovered;
  Report.kvf "lost" "%d"
    (List.length r.Experiment.audit.Audit.durability.Rapilog.Durability.lost);
  Report.kvf "state exact" "%b" r.Experiment.audit.Audit.state_exact;
  Report.kvf "durable log records" "%d" r.Experiment.durable_records;
  Report.kvf "redo / undo applied" "%d / %d" r.Experiment.redo_applied
    r.Experiment.undo_applied;
  (match r.Experiment.buffered_at_cut with
  | Some b -> Report.kvf "buffered at cut" "%d KiB" (b / 1024)
  | None -> ());
  (match r.Experiment.holdup_window with
  | Some w -> Report.kvf "hold-up window" "%a" Desim.Time.pp_span w
  | None -> ());
  Report.kvf "runtime invariant violations" "%d" r.Experiment.invariant_violations;
  if Experiment.durability_ok r then
    Report.kv "verdict"
      (if r.Experiment.audit.Audit.durability.Rapilog.Durability.lost = [] then
         "durability held"
       else "lossy, as this configuration's promise allows")
  else begin
    Report.kv "verdict" "DURABILITY GUARANTEE VIOLATED";
    exit 1
  end

let failure_cmd name kind doc =
  let action config_result after =
    let config = or_exit config_result in
    print_failure config
      (Experiment.run_failure config ~kind ~after:(Desim.Time.span_of_float_sec after))
  in
  Cmd.v (Cmd.info name ~doc) Term.(const action $ config_term $ after_arg)

(* -- modes ---------------------------------------------------------------------- *)

let modes_cmd =
  let action () =
    Report.table
      ~columns:[ "mode"; "durability promise" ]
      ~rows:
        (List.map
           (fun mode ->
             [
               Scenario.mode_name mode;
               (match Scenario.mode_is_durable mode with
               | `Always -> "survives OS crashes and power cuts"
               | `Minority_loss_too ->
                   "survives OS crashes, power cuts, partitions, and loss of \
                    the primary plus any minority of replicas"
               | `Os_crash_only -> "survives OS crashes; loses on power cuts"
               | `Never -> "can lose recent commits on any crash");
             ])
           Scenario.all_modes);
    print_endline
      "rapilog-replicated (RapiLog-R) is rapilog-quorum --replicas 1 \
       --quorum 1:\nit survives the loss of the whole primary machine."
  in
  Cmd.v (Cmd.info "modes" ~doc:"List configurations and durability promises.")
    Term.(const action $ const ())

let () =
  let info =
    Cmd.info "rapilog_sim" ~version:"1.0.0"
      ~doc:"Simulated RapiLog: durable logging through a verified hypervisor"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd;
            failure_cmd "crash" Experiment.Os_crash
              "Inject a guest-OS crash and audit durability.";
            failure_cmd "power-cut" Experiment.Power_cut
              "Cut mains power and audit durability.";
            modes_cmd;
          ]))
