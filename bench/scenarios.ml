(* Scenario-grid harness (PR 10): machine-readable evidence that the
   Scen DSL's workload library composes with the full verification
   harness.

   The claims, with teeth:

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
     the sweep reports {e zero} contract breaks at every explored
     boundary — open-loop arrivals, churn gates and hot keys inherit
     the durability audit unchanged.
   - offered load: open-loop arrivals are honoured — each rapilog
     steady-twin cell commits within tolerance of its offered rate.
   - the flash-crowd asymmetry: on the disk, RapiLog's p99 under the
     burst stays within a small factor of its steady twin, while
     native-sync's p99 blows up by a large factor (the backlog of an
     open-loop burst against synchronous commit latency). That
     asymmetry is the open-loop library's reason to exist: a
     closed-loop client would have politely slowed down instead.

   Writes a JSON report (default BENCH_PR10.json). With --check it
   self-validates so `dune runtest` keeps the harness honest.

   Usage: scenarios.exe [--quick] [--check] [--jobs N] [--device NAME]
                        [--streams N] [--output PATH] *)

open Desim
open Harness
open Harness.Json
module B = Scen.Builder

(* -- the cell grid ----------------------------------------------------- *)

let modes = [ Scenario.Rapilog; Scenario.Native_sync ]
let all_devices = [ "hdd"; "nvme" ]

(* Steady cells measure the arrival shapes over a real window; sweep
   cells rerun the same composed workload on a short clock so every
   crash-point replay stays cheap. The shapes read warmup/duration, so
   timing goes first in both pipelines. *)
let steady_base ~quick ~streams:n =
  B.(
    start () |> seed 100_001L
    |> warmup (if quick then Time.ms 100 else Time.ms 200)
    |> duration (if quick then Time.ms 500 else Time.sec 1)
    |> streams n)

let sweep_base ~quick ~streams:n ~fault_rate =
  B.(
    start () |> seed 100_002L |> warmup (Time.ms 2)
    |> duration (if quick then Time.ms 25 else Time.ms 40)
    |> streams n
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
  let kinds = List.map (fun f -> f.Scen.f_kind) faults in
  let stride =
    match faults with
    | [] -> 1
    | f :: _ -> Scen.stride_of_rate f.Scen.f_rate
  in
  {
    (Crash_surface.default scenario) with
    Crash_surface.kinds;
    stride;
    window_start = Time.ms 1;
    window_length = (if quick then Time.ms 4 else Time.ms 12);
  }

let cells ~quick ~devices ~streams =
  List.concat_map
    (fun (wname, shape) ->
      List.concat_map
        (fun mode ->
          List.map
            (fun dev ->
              let compose b =
                b |> shape |> B.mode mode |> B.device_of_name dev
              in
              let fault_rate = fault_rate ~quick wname in
              let steady_b = compose (steady_base ~quick ~streams) in
              let steady = B.build_or_exit steady_b in
              let twin = B.build_or_exit (Scen.Workloads.steady_twin steady_b) in
              {
                cl_name =
                  Printf.sprintf "%s/%s/%s" wname (Scenario.mode_name mode) dev;
                cl_workload = wname;
                cl_mode = mode;
                cl_device = dev;
                cl_steady = steady;
                cl_twin = (if twin = steady then None else Some twin);
                cl_sweep =
                  sweep_config_of ~quick
                    (compose (sweep_base ~quick ~streams ~fault_rate));
              })
            devices)
        modes)
    Scen.Workloads.all

(* -- JSON --------------------------------------------------------------- *)

let steady_json (r : Experiment.steady_result) =
  Obj
    [
      ("committed_in_window", Num (float_of_int r.Experiment.committed_in_window));
      ("throughput", Num r.Experiment.throughput);
      ("p50_us", Num r.Experiment.latency_p50_us);
      ("p99_us", Num r.Experiment.latency_p99_us);
    ]

let sweep_json (r : Crash_surface.result) =
  Obj
    [
      ("stride", Num (float_of_int r.Crash_surface.r_stride));
      ("total_boundaries", Num (float_of_int r.Crash_surface.r_total_boundaries));
      ("explored", Num (float_of_int r.Crash_surface.r_explored));
      ("contract_breaks", Num (float_of_int r.Crash_surface.r_contract_breaks));
      ("lost_total", Num (float_of_int r.Crash_surface.r_lost_total));
      ( "kinds",
        Arr
          (List.map
             (fun (k : Crash_surface.kind_summary) ->
               Obj
                 [
                   ("kind", Str (Crash_surface.kind_name k.Crash_surface.k_kind));
                   ("boundaries", Num (float_of_int k.Crash_surface.k_boundaries));
                   ("explored", Num (float_of_int k.Crash_surface.k_explored));
                   ( "contract_breaks",
                     Num (float_of_int k.Crash_surface.k_contract_breaks) );
                 ])
             r.Crash_surface.r_kinds) );
    ]

(* -- main --------------------------------------------------------------- *)

let usage () =
  print_endline
    "usage: scenarios.exe [--quick] [--check] [--jobs N] [--device NAME] \
     [--streams N] [--output PATH]";
  exit 2

let () =
  let quick = ref false in
  let check = ref false in
  let jobs = ref (Parallel.default_jobs ()) in
  let device = ref None in
  let streams = ref 1 in
  let output = ref "BENCH_PR10.json" in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest -> quick := true; parse rest
    | "--check" :: rest -> check := true; parse rest
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 -> jobs := n; parse rest
        | _ -> usage ())
    | "--device" :: name :: rest -> device := Some name; parse rest
    | "--streams" :: n :: rest -> (
        (* Deliberately unchecked here: the value flows into the DSL so
           that Scen.validate — not ad-hoc flag parsing — rejects
           nonsense like 0 streams or streams on a Serial policy. *)
        match int_of_string_opt n with
        | Some n -> streams := n; parse rest
        | None -> usage ())
    | "--output" :: path :: rest -> output := path; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let quick = !quick in
  let devices =
    match !device with None -> all_devices | Some d -> [ d ]
  in
  let failures = ref [] in
  let fail msg = failures := msg :: !failures in

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
                  {
                    Scenario.default.Scenario.quorum with
                    Net.Quorum.replicas = 1;
                    quorum = 1;
                  };
              }
        in
        let dsl = B.build (Scen.preset name) in
        (name, Scen.digest dsl, Scen.digest legacy))
      Scen.preset_names
  in
  let presets_ok = List.for_all (fun (_, d, l) -> d = l) presets in
  Printf.printf "scenarios: %d presets digest-identical to legacy configs: %b\n%!"
    (List.length presets) presets_ok;

  (* -- the grid ------------------------------------------------------- *)
  let grid = cells ~quick ~devices ~streams:!streams in

  (* The same grid through Scen.Builder.grid: the combinator must
     enumerate exactly the nested loops above, row-major, so bench
     tables and this harness agree on what "cell i" means. *)
  let combinator_grid =
    B.grid
      ~axes:
        [
          List.map snd Scen.Workloads.all;
          List.map B.mode modes;
          List.map B.device_of_name devices;
        ]
      (steady_base ~quick ~streams:!streams)
  in
  let grid_digests = List.map (fun c -> Scen.digest c.cl_steady) grid in
  let combinator_digests =
    List.map (fun b -> Scen.digest (B.build_or_exit b)) combinator_grid
  in
  let grid_ok = grid_digests = combinator_digests in
  Printf.printf
    "scenarios: grid of %d cells (%d workloads x %d modes x %d devices); \
     Builder.grid enumeration digest-identical: %b\n%!"
    (List.length grid) (List.length Scen.Workloads.all) (List.length modes)
    (List.length devices) grid_ok;

  (* -- steady metrics, cells and twins in one parallel batch ---------- *)
  let twins = List.filter_map (fun c -> c.cl_twin) grid in
  let t0 = Unix.gettimeofday () in
  let steady_results =
    Experiment.run_steady_batch ~jobs:!jobs
      (List.map (fun c -> c.cl_steady) grid @ twins)
  in
  let steady_s = Unix.gettimeofday () -. t0 in
  let cell_steady = List.filteri (fun i _ -> i < List.length grid) steady_results in
  let twin_steady =
    let rest = List.filteri (fun i _ -> i >= List.length grid) steady_results in
    let tbl = Hashtbl.create 8 in
    List.iter2
      (fun config result -> Hashtbl.replace tbl (Scen.digest config) result)
      twins rest;
    fun (c : cell) ->
      match c.cl_twin with
      | None -> None
      | Some twin -> Hashtbl.find_opt tbl (Scen.digest twin)
  in
  List.iter2
    (fun c (r : Experiment.steady_result) ->
      let twin_note =
        match twin_steady c with
        | Some (t : Experiment.steady_result) ->
            Printf.sprintf " (steady twin p99 %8.0f us, x%.2f)"
              t.Experiment.latency_p99_us
              (r.Experiment.latency_p99_us /. t.Experiment.latency_p99_us)
        | None -> ""
      in
      Printf.printf
        "scenarios: %-28s %6d committed, %8.0f txn/s, p99 %8.0f us%s\n%!"
        c.cl_name r.Experiment.committed_in_window r.Experiment.throughput
        r.Experiment.latency_p99_us twin_note)
    grid cell_steady;
  Printf.printf "scenarios: steady batch done in %.2fs\n%!" steady_s;

  (* -- the crash sweeps: every cell, every enumerated boundary -------- *)
  let t1 = Unix.gettimeofday () in
  let sweeps =
    List.map (fun c -> Crash_surface.sweep ~jobs:!jobs c.cl_sweep) grid
  in
  let sweep_s = Unix.gettimeofday () -. t1 in
  let total_explored =
    List.fold_left (fun acc s -> acc + s.Crash_surface.r_explored) 0 sweeps
  in
  let total_breaks =
    List.fold_left (fun acc s -> acc + s.Crash_surface.r_contract_breaks) 0 sweeps
  in
  List.iter2
    (fun c (s : Crash_surface.result) ->
      Printf.printf
        "scenarios: sweep %-28s %5d boundaries, stride %4d, %3d explored, %d \
         contract breaks\n%!"
        c.cl_name s.Crash_surface.r_total_boundaries s.Crash_surface.r_stride
        s.Crash_surface.r_explored s.Crash_surface.r_contract_breaks)
    grid sweeps;
  Printf.printf
    "scenarios: crash sweeps done in %.2fs: %d points explored, %d contract \
     breaks\n%!"
    sweep_s total_explored total_breaks;

  (* -- the flash-crowd asymmetry -------------------------------------- *)
  let p99_ratio workload mode dev =
    let rec find cs rs =
      match (cs, rs) with
      | c :: cs, (r : Experiment.steady_result) :: rs ->
          if c.cl_workload = workload && c.cl_mode = mode && c.cl_device = dev
          then
            match twin_steady c with
            | Some t ->
                Some (r.Experiment.latency_p99_us /. t.Experiment.latency_p99_us)
            | None -> None
          else find cs rs
      | _ -> None
    in
    find grid cell_steady
  in
  let flash_ratios =
    List.concat_map
      (fun dev ->
        List.map
          (fun mode ->
            (Scenario.mode_name mode, dev, p99_ratio "flash-crowd" mode dev))
          modes)
      devices
  in
  List.iter
    (fun (mode, dev, ratio) ->
      match ratio with
      | Some r ->
          Printf.printf "scenarios: flash-crowd p99 degradation %s/%s: x%.2f\n%!"
            mode dev r
      | None -> ())
    flash_ratios;

  (* -- offered-load fidelity ------------------------------------------ *)
  let rapilog_twin_rates =
    List.filter_map
      (fun c ->
        if c.cl_mode = Scenario.Rapilog then
          match (c.cl_steady.Scenario.arrival, twin_steady c) with
          | Workload.Arrival.Open_loop shape, Some t ->
              let offered =
                match shape with
                | Workload.Arrival.Poisson { rate } -> rate
                | Workload.Arrival.Flash_crowd { base; _ } -> base
                | Workload.Arrival.Diurnal { mean; _ } -> mean
              in
              Some (c.cl_name, offered, t.Experiment.throughput)
          | _ -> None
        else None)
      grid
  in

  let report =
    Obj
      [
        ("pr", Num 10.);
        ("harness", Str "scenarios.exe");
        ("quick", Bool quick);
        ("jobs", Num (float_of_int !jobs));
        ( "presets",
          Arr
            (List.map
               (fun (name, dsl, legacy) ->
                 Obj
                   [
                     ("name", Str name);
                     ("dsl_digest", Str dsl);
                     ("legacy_digest", Str legacy);
                     ("identical", Bool (dsl = legacy));
                   ])
               presets) );
        ( "grid",
          Obj
            [
              ("cells", Num (float_of_int (List.length grid)));
              ("combinator_enumeration_identical", Bool grid_ok);
              ("steady_seconds", Num steady_s);
              ("sweep_seconds", Num sweep_s);
            ] );
        ( "cells",
          Arr
            (List.map2
               (fun (c, r) s ->
                 Obj
                   ([
                      ("name", Str c.cl_name);
                      ("workload", Str c.cl_workload);
                      ("mode", Str (Scenario.mode_name c.cl_mode));
                      ("device", Str c.cl_device);
                      ("digest", Str (Scen.digest c.cl_steady));
                      ("steady", steady_json r);
                      ("sweep", sweep_json s);
                    ]
                   @
                   match twin_steady c with
                   | Some t ->
                       [
                         ("twin", steady_json t);
                         ( "p99_vs_twin",
                           Num
                             (r.Experiment.latency_p99_us
                             /. t.Experiment.latency_p99_us) );
                       ]
                   | None -> []))
               (List.combine grid cell_steady)
               sweeps) );
        ( "offered_load",
          Arr
            (List.map
               (fun (name, offered, measured) ->
                 Obj
                   [
                     ("cell_twin", Str name);
                     ("offered_per_s", Num offered);
                     ("committed_per_s", Num measured);
                   ])
               rapilog_twin_rates) );
      ]
  in
  let text = Json.to_string report in
  let oc = open_out !output in
  output_string oc text;
  close_out oc;
  Printf.printf "scenarios: wrote %s\n%!" !output;

  if !check then begin
    (match Json.of_string text with
    | exception Json.Parse_error msg -> fail ("report is not valid JSON: " ^ msg)
    | _ -> ());
    if not presets_ok then
      fail "a DSL preset is not digest-identical to its legacy config";
    if not grid_ok then
      fail "Builder.grid enumeration differs from the nested-loop grid";
    List.iter2
      (fun c (s : Crash_surface.result) ->
        if s.Crash_surface.r_explored = 0 then
          fail (Printf.sprintf "sweep %s explored zero boundaries" c.cl_name);
        if s.Crash_surface.r_contract_breaks > 0 then
          fail
            (Printf.sprintf "sweep %s: %d contract breaks (%d commits lost)"
               c.cl_name s.Crash_surface.r_contract_breaks
               s.Crash_surface.r_lost_total))
      grid sweeps;
    List.iter
      (fun c ->
        match Scen.validate c.cl_steady with
        | Ok _ -> ()
        | Error msg -> fail (Printf.sprintf "cell %s invalid: %s" c.cl_name msg))
      grid;
    (* The asymmetry gate only speaks on the disk with both modes
       present (a --device/--streams override changes the question). *)
    if !streams = 1 && List.mem "hdd" devices then begin
      (match p99_ratio "flash-crowd" Scenario.Rapilog "hdd" with
      | Some r when r > 3.0 ->
          fail
            (Printf.sprintf
               "flash crowd degrades rapilog/hdd p99 x%.2f (> x3): the \
                trusted buffer should absorb the burst"
               r)
      | Some _ -> ()
      | None -> fail "flash-crowd rapilog/hdd ratio missing");
      match p99_ratio "flash-crowd" Scenario.Native_sync "hdd" with
      | Some r when r < 5.0 ->
          fail
            (Printf.sprintf
               "flash crowd degrades native-sync/hdd p99 only x%.2f (< x5): \
                the open-loop burst should overwhelm synchronous commits — \
                no asymmetry, no teeth"
               r)
      | Some _ -> ()
      | None -> fail "flash-crowd native-sync/hdd ratio missing"
    end;
    List.iter
      (fun (name, offered, measured) ->
        if abs_float (measured -. offered) /. offered > 0.25 then
          fail
            (Printf.sprintf
               "%s: steady twin committed %.0f/s against %.0f/s offered \
                (>25%% off): open-loop arrivals are not being honoured"
               name measured offered))
      rapilog_twin_rates;
    match List.rev !failures with
    | [] -> Printf.printf "scenarios: all checks passed\n%!"
    | fs ->
        List.iter (fun f -> Printf.printf "scenarios: CHECK FAILED: %s\n%!" f) fs;
        exit 1
  end
