(* scenario-grid: the Scen DSL's open-loop workload library as a
   printable experiment — flash crowds, diurnal arrivals, client churn
   and hot-key skew against rapilog and native-sync on the disk. The
   open-loop cells report arrival-to-ack sojourn (queue wait included),
   which is where a burst against synchronous commits shows up; the
   machine-readable version with per-cell crash sweeps is
   the scenarios gate (BENCH_scenarios.json). *)

open Harness
open Bench_support
module B = Scen.Builder

let experiment =
  {
    id = "scenario-grid";
    title = "Scenario grid: DSL-composed open-loop workloads";
    description =
      "DSL-built workload grid (flash-crowd/diurnal/churn/hot-key), rapilog \
       vs native-sync";
    run =
      (fun ~quick ->
        Report.section
          "Scenario grid: open-loop workload library, 7200 rpm disk (Scen DSL)";
        let modes = [ Scenario.Rapilog; Scenario.Native_sync ] in
        let cells =
          List.concat_map
            (fun (name, shape) ->
              List.map
                (fun m ->
                  ( name,
                    m,
                    B.(start ~base:(base_config ~quick) () |> shape |> mode m |> build)
                  ))
                modes)
            Scen.Workloads.all
        in
        let results =
          Experiment.run_steady_batch (List.map (fun (_, _, c) -> c) cells)
        in
        Report.table
          ~columns:[ "workload"; "mode"; "txn/s"; "p50 us"; "p99 us" ]
          ~rows:
            (List.map2
               (fun (name, m, _) (r : Experiment.steady_result) ->
                 [
                   name;
                   Scenario.mode_name m;
                   Report.float_cell r.Experiment.throughput;
                   Report.float_cell r.Experiment.latency_p50_us;
                   Report.float_cell r.Experiment.latency_p99_us;
                 ])
               cells results);
        Report.note
          "open-loop latency is arrival-to-ack sojourn: bursts queue against \
           native-sync's commit latency but are absorbed by rapilog's \
           trusted buffer (crash-sweep evidence: --only scenarios)");
  }
