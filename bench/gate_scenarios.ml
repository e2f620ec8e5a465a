(* scenarios: the gate of the Scen DSL's workload library composed with
   the full verification harness. The claims, with teeth:

   - presets: the nine canonical configurations (one per mode, plus
     rapilog-replicated, the one-replica quorum cluster) re-expressed as
     [Scen.preset] pipelines are digest-identical to the legacy
     hand-rolled records — the DSL is a front door, not a fork.
   - grid: [Scen.Builder.grid] enumerates exactly the cartesian product
     of its axes, in row-major order, digest-identical to the nested
     loops a bench would otherwise hand-roll.
   - coverage: every cell of the workload grid (flash-crowd, diurnal,
     client-churn, hot-key skew x rapilog, native-sync x hdd, nvme)
     runs both steady metrics and a strided crash-surface sweep, and
     the sweep reports zero contract breaks at every explored boundary
     — open-loop arrivals, churn gates and hot keys inherit the
     durability audit unchanged.
   - offered load: open-loop arrivals are honoured — each rapilog
     steady-twin cell commits within tolerance of its offered rate.
   - the flash-crowd asymmetry: on the disk, RapiLog's p99 under the
     burst stays within a small factor of its steady twin, while
     native-sync's p99 blows up by a large factor (the backlog of an
     open-loop burst against synchronous commit latency). That
     asymmetry is the open-loop library's reason to exist: a
     closed-loop client would have politely slowed down instead. *)

open Desim
open Harness
open Harness.Json
module B = Scen.Builder

(* -- the cell grid ----------------------------------------------------- *)

let modes = [ Scenario.Rapilog; Scenario.Native_sync ]
let devices = [ "hdd"; "nvme" ]

(* Steady cells measure the arrival shapes over a real window; sweep
   cells rerun the same composed workload on a short clock so every
   crash-point replay stays cheap. The shapes read warmup/duration, so
   timing goes first in both pipelines. *)
let steady_base ~quick =
  B.(
    start () |> seed 100_001L
    |> warmup (if quick then Time.ms 100 else Time.ms 200)
    |> duration (if quick then Time.ms 500 else Time.sec 1))

let sweep_base ~quick ~fault_rate =
  B.(
    start () |> seed 100_002L |> warmup (Time.ms 2)
    |> duration (if quick then Time.ms 25 else Time.ms 40)
    |> fault ~rate:fault_rate ~kind:Crash_surface.Os_crash
    |> fault ~rate:fault_rate ~kind:Crash_surface.Power_cut)

(* The fault rate is a coverage fraction, so it scales to the cell's
   boundary density: the open-loop cells put a few dozen boundaries in
   the sweep window (explore a large fraction), while the closed-loop
   churn cells put thousands there (stride over them). *)
let fault_rate ~quick = function
  | "client-churn" -> if quick then 0.01 else 0.02
  | _ -> if quick then 0.25 else 0.5

type cell = {
  cl_name : string;  (* workload/mode/device *)
  cl_workload : string;
  cl_mode : Scenario.mode;
  cl_device : string;
  cl_steady : Scenario.config;
  cl_twin : Scenario.config option;
      (* the steady control the degradation gates compare against;
         [None] when the shape already is its own twin (hot-key) *)
  cl_sweep : Crash_surface.config;
}

let sweep_config_of builder ~quick =
  let scenario = B.build_or_exit builder in
  let faults = B.faults builder in
  {
    (Crash_surface.default scenario) with
    Crash_surface.kinds = List.map (fun f -> f.Scen.f_kind) faults;
    stride = (match faults with [] -> 1 | f :: _ -> Scen.stride_of_rate f.Scen.f_rate);
    window_start = Time.ms 1;
    window_length = (if quick then Time.ms 4 else Time.ms 12);
  }

let cells ~quick =
  List.concat_map
    (fun (wname, shape) ->
      List.concat_map
        (fun mode ->
          List.map
            (fun dev ->
              let compose b = b |> shape |> B.mode mode |> B.device_of_name dev in
              let steady_b = compose (steady_base ~quick) in
              let steady = B.build_or_exit steady_b in
              let twin = B.build_or_exit (Scen.Workloads.steady_twin steady_b) in
              {
                cl_name = Printf.sprintf "%s/%s/%s" wname (Scenario.mode_name mode) dev;
                cl_workload = wname;
                cl_mode = mode;
                cl_device = dev;
                cl_steady = steady;
                cl_twin = (if twin = steady then None else Some twin);
                cl_sweep =
                  sweep_config_of ~quick
                    (compose (sweep_base ~quick ~fault_rate:(fault_rate ~quick wname)));
              })
            devices)
        modes)
    Scen.Workloads.all

let gate (g : Gate.t) =
  let quick = g.Gate.quick in
  (* -- presets: DSL == legacy records, by digest ---------------------- *)
  let presets =
    List.map
      (fun name ->
        let legacy =
          match Scenario.mode_of_name name with
          | Some mode -> { Scenario.default with Scenario.mode }
          | None ->
              (* rapilog-replicated: the one-replica quorum cluster. *)
              assert (name = "rapilog-replicated");
              {
                Scenario.default with
                Scenario.mode = Scenario.Rapilog_quorum;
                quorum =
                  { Scenario.default.Scenario.quorum with Net.Quorum.replicas = 1; quorum = 1 };
              }
        in
        (name, Scen.digest (B.build (Scen.preset name)), Scen.digest legacy))
      Scen.preset_names
  in
  List.iter
    (fun (name, dsl, legacy) ->
      Gate.check g ("presets.digest/" ^ name) (dsl = legacy)
        "the DSL preset is not digest-identical to its legacy config")
    presets;

  (* -- the grid ------------------------------------------------------- *)
  let grid = cells ~quick in
  (* The same grid through Scen.Builder.grid: the combinator must
     enumerate exactly the nested loops above, row-major, so bench
     tables and this gate agree on what "cell i" means. *)
  let combinator_grid =
    B.grid
      ~axes:
        [
          List.map snd Scen.Workloads.all;
          List.map B.mode modes;
          List.map B.device_of_name devices;
        ]
      (steady_base ~quick)
  in
  let grid_ok =
    List.map (fun c -> Scen.digest c.cl_steady) grid
    = List.map (fun b -> Scen.digest (B.build_or_exit b)) combinator_grid
  in
  Printf.printf
    "scenarios: grid of %d cells (%d workloads x %d modes x %d devices); Builder.grid \
     enumeration digest-identical: %b\n%!"
    (List.length grid) (List.length Scen.Workloads.all) (List.length modes)
    (List.length devices) grid_ok;
  Gate.check g "grid.combinator" grid_ok
    "Builder.grid enumeration differs from the nested-loop grid";
  List.iter
    (fun c ->
      Gate.check g ("grid.valid/" ^ c.cl_name)
        (Result.is_ok (Scen.validate c.cl_steady))
        (match Scen.validate c.cl_steady with Ok _ -> "" | Error msg -> msg))
    grid;

  (* -- steady metrics, cells and twins in one parallel batch ---------- *)
  let twins = List.filter_map (fun c -> c.cl_twin) grid in
  let steady_results, steady_s =
    Gate.timed (fun () ->
        Experiment.run_steady_batch (List.map (fun c -> c.cl_steady) grid @ twins))
  in
  let cell_steady = List.filteri (fun i _ -> i < List.length grid) steady_results in
  let twin_steady =
    let tbl = Hashtbl.create 8 in
    List.iter2
      (fun config result -> Hashtbl.replace tbl (Scen.digest config) result)
      twins
      (List.filteri (fun i _ -> i >= List.length grid) steady_results);
    fun (c : cell) -> Option.bind c.cl_twin (fun twin -> Hashtbl.find_opt tbl (Scen.digest twin))
  in
  let p99_vs_twin c (r : Experiment.steady_result) =
    Option.map
      (fun (t : Experiment.steady_result) ->
        (t, r.Experiment.latency_p99_us /. t.Experiment.latency_p99_us))
      (twin_steady c)
  in
  List.iter2
    (fun c (r : Experiment.steady_result) ->
      Printf.printf "scenarios: %-28s %6d committed, %8.0f txn/s, p99 %8.0f us%s\n%!"
        c.cl_name r.Experiment.committed_in_window r.Experiment.throughput
        r.Experiment.latency_p99_us
        (match p99_vs_twin c r with
        | Some (t, ratio) ->
            Printf.sprintf " (steady twin p99 %8.0f us, x%.2f)" t.Experiment.latency_p99_us ratio
        | None -> ""))
    grid cell_steady;

  (* -- the crash sweeps: every cell, every enumerated boundary -------- *)
  let sweeps, sweep_s =
    Gate.timed (fun () -> List.map (fun c -> Crash_surface.sweep c.cl_sweep) grid)
  in
  List.iter2
    (fun c (s : Crash_surface.result) ->
      Printf.printf
        "scenarios: sweep %-28s %5d boundaries, stride %4d, %3d explored, %d contract \
         breaks\n%!"
        c.cl_name s.Crash_surface.r_total_boundaries s.Crash_surface.r_stride
        s.Crash_surface.r_explored s.Crash_surface.r_contract_breaks;
      Gate.check g ("sweep.explored/" ^ c.cl_name) (s.Crash_surface.r_explored > 0)
        "the sweep explored zero boundaries";
      Gate.check g ("sweep.breaks/" ^ c.cl_name) (s.Crash_surface.r_contract_breaks = 0)
        (Printf.sprintf "%d contract breaks (%d commits lost)" s.Crash_surface.r_contract_breaks
           s.Crash_surface.r_lost_total))
    grid sweeps;
  Printf.printf "scenarios: steady batch %.2fs, crash sweeps %.2fs\n%!" steady_s sweep_s;

  (* -- the flash-crowd asymmetry, on the disk ------------------------- *)
  let flash mode =
    List.find_map
      (fun (c, r) ->
        if c.cl_workload = "flash-crowd" && c.cl_mode = mode && c.cl_device = "hdd" then
          Option.map snd (p99_vs_twin c r)
        else None)
      (List.combine grid cell_steady)
  in
  (match flash Scenario.Rapilog with
  | Some r ->
      Gate.check g "flash_crowd.rapilog_absorbs" (r <= 3.0)
        (Printf.sprintf
           "flash crowd degrades rapilog/hdd p99 x%.2f (> x3): the trusted buffer should \
            absorb the burst"
           r)
  | None -> Gate.check g "flash_crowd.rapilog_absorbs" false "ratio missing");
  (match flash Scenario.Native_sync with
  | Some r ->
      Gate.check g "flash_crowd.native_sync_degrades" (r >= 5.0)
        (Printf.sprintf
           "flash crowd degrades native-sync/hdd p99 only x%.2f (< x5): the open-loop \
            burst should overwhelm synchronous commits — no asymmetry, no teeth"
           r)
  | None -> Gate.check g "flash_crowd.native_sync_degrades" false "ratio missing");

  (* -- offered-load fidelity ------------------------------------------ *)
  let offered_load =
    List.filter_map
      (fun c ->
        match (c.cl_mode, c.cl_steady.Scenario.arrival, twin_steady c) with
        | Scenario.Rapilog, Workload.Arrival.Open_loop shape, Some t ->
            let offered =
              match shape with
              | Workload.Arrival.Poisson { rate } -> rate
              | Workload.Arrival.Flash_crowd { base; _ } -> base
              | Workload.Arrival.Diurnal { mean; _ } -> mean
            in
            let measured = t.Experiment.throughput in
            Gate.check g ("offered_load/" ^ c.cl_name)
              (abs_float (measured -. offered) /. offered <= 0.25)
              (Printf.sprintf
                 "steady twin committed %.0f/s against %.0f/s offered (>25%% off): \
                  open-loop arrivals are not being honoured"
                 measured offered);
            Some
              (Obj
                 [
                   ("cell_twin", Str c.cl_name);
                   ("offered_per_s", Num offered);
                   ("committed_per_s", Num measured);
                 ])
        | _ -> None)
      grid
  in

  Gate.report g "presets"
    (Arr
       (List.map
          (fun (name, dsl, legacy) ->
            Obj
              [
                ("name", Str name);
                ("dsl_digest", Str dsl);
                ("legacy_digest", Str legacy);
                ("identical", Bool (dsl = legacy));
              ])
          presets));
  Gate.report g "grid"
    (Obj
       [
         ("cells", Gate.num_int (List.length grid));
         ("combinator_enumeration_identical", Bool grid_ok);
         ("steady_seconds", Num steady_s);
         ("sweep_seconds", Num sweep_s);
       ]);
  Gate.report g "cells"
    (Arr
       (List.map2
          (fun (c, r) s ->
            Obj
              ([
                 ("name", Str c.cl_name);
                 ("workload", Str c.cl_workload);
                 ("mode", Str (Scenario.mode_name c.cl_mode));
                 ("device", Str c.cl_device);
                 ("digest", Str (Scen.digest c.cl_steady));
                 ("steady", Obj (Gate.steady_json r));
                 ("sweep", Gate.sweep_json s);
               ]
              @
              match p99_vs_twin c r with
              | Some (t, ratio) -> [ ("twin", Obj (Gate.steady_json t)); ("p99_vs_twin", Num ratio) ]
              | None -> []))
          (List.combine grid cell_steady)
          sweeps));
  Gate.report g "offered_load" (Arr offered_load)

let experiments =
  [
    Gate.experiment ~id:"scenarios"
      ~title:"Scenario gate: DSL presets, Builder.grid, workload-grid crash sweeps"
      ~description:"open-loop workload grid: zero breaks, flash-crowd asymmetry, offered load"
      gate;
  ]
