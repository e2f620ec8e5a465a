(* Compare every system configuration on the TPC-C-lite workload: the
   safe baselines (native and virtualised synchronous logging, and the
   flush-barrier-over-write-cache variant), RapiLog, and the two classic
   unsafe shortcuts it makes unnecessary (trusting the disk's write
   cache, asynchronous commit).

   Run with: dune exec examples/tpcc_comparison.exe [-- clients] *)

open Harness

let clients =
  if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 8

let run mode =
  let config =
    {
      Scenario.default with
      Scenario.mode;
      clients;
      duration = Desim.Time.sec 2;
      warmup = Desim.Time.ms 300;
    }
  in
  Experiment.run_steady config

let () =
  Printf.printf "TPC-C-lite, pg-like engine, 7200 rpm log disk, %d clients\n\n"
    clients;
  let results = List.map (fun mode -> (mode, run mode)) Scenario.all_modes in
  let baseline =
    match List.assoc_opt Scenario.Native_sync results with
    | Some r -> r.Experiment.throughput
    | None -> assert false
  in
  Report.table
    ~columns:
      [ "config"; "txn/s"; "vs native"; "p50 us"; "p99 us"; "log writes"; "durable?" ]
    ~rows:
      (List.map
         (fun (mode, r) ->
           [
             Scenario.mode_name mode;
             Printf.sprintf "%.0f" r.Experiment.throughput;
             Printf.sprintf "%.2fx" (r.Experiment.throughput /. baseline);
             Printf.sprintf "%.0f" r.Experiment.latency_p50_us;
             Printf.sprintf "%.0f" r.Experiment.latency_p99_us;
             string_of_int r.Experiment.physical_log_writes;
             (match Scenario.mode_is_durable mode with
             | `Always -> "yes"
             | `Minority_loss_too -> "yes + minority loss"
             | `Os_crash_only -> "power-unsafe"
             | `Never -> "no");
           ])
         results);
  print_newline ();
  print_endline
    "RapiLog should match or beat native-sync while keeping full durability;";
  print_endline
    "the unsafe configurations show the performance that used to require";
  print_endline "giving the guarantee up."
