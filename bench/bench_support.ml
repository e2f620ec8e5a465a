(* Shared plumbing for the experiment benches. *)

open Desim
open Harness

type experiment = {
  id : string;
  title : string;
  description : string;
      (* one line for [--list]: what the experiment measures and why *)
  run : quick:bool -> unit;
}

let base_config ~quick =
  Scen.Builder.(
    start ()
    |> warmup (if quick then Time.ms 200 else Time.ms 400)
    |> duration (if quick then Time.ms 800 else Time.sec 2)
    |> build)

let client_sweep ~quick = if quick then [ 1; 4; 16 ] else [ 1; 2; 4; 8; 16; 32; 64 ]

let failure_trials ~quick = if quick then 5 else 20

let all_modes = Scenario.all_modes

let mode_columns = List.map Scenario.mode_name all_modes

let steady config = Experiment.run_steady config

(* Throughput of every mode at each client count, as a printable series.
   The cells are independent simulations, so they fan out across the
   RAPILOG_JOBS worker pool. *)
let throughput_sweep ~config ~clients ~modes =
  List.map
    (fun (n, row) ->
      (float_of_int n, List.map (fun r -> r.Experiment.throughput) row))
    (Experiment.sweep ~config ~clients ~modes ())

let print_config_line (config : Scenario.config) =
  Report.kv "engine" config.Scenario.profile.Dbms.Engine_profile.name;
  Report.kv "device" (Scenario.device_name config.Scenario.device);
  Report.kv "workload"
    (match config.Scenario.workload with
    | Scenario.Tpcc _ -> "tpcc-lite"
    | Scenario.Micro _ -> "microbench"
    | Scenario.Ycsb _ -> "ycsb-lite");
  Report.kvf "seed" "%Ld" config.Scenario.seed

let bool_cell b = if b then "yes" else "NO"

(* The one microbenchmark loop: [run ()] performs [ops] operations of a
   hot path set up beforehand. Returns their wall-clock rate and the
   minor-heap words allocated per operation. *)
let per_op ~ops run =
  Gc.minor ();
  let words0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  run ();
  let elapsed = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. words0 in
  (float_of_int ops /. elapsed, words /. float_of_int ops)
