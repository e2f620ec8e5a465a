(* The bench gates' check-and-report module. A gate is an experiment of
   main.exe that makes named checks. It records each check's outcome and
   a report of what it measured; at its end the report, every check
   included, is written once as BENCH_<id>.json in the working
   directory and re-parsed there, and every failed check prints one
   line. main.exe turns a failed check into exit status 1 under
   --check; without --check the same lines print and the exit is 0.

   It also holds what the gates share: the serial-vs-parallel and
   metrics-on-vs-off identity runs and the crash-sweep helpers. *)

open Desim
open Harness
open Harness.Json

type t = {
  id : string;
  quick : bool;
  mutable checks : (string * bool * string) list;  (* newest first *)
  mutable report : (string * Json.t) list;  (* newest first *)
}

(* Whether any gate run in this process had a failed check. *)
let failed = ref false

(* [check g name ok why]: record check [name]; [why] says what went
   wrong when [ok] is false. *)
let check g name ok why = g.checks <- (name, ok, why) :: g.checks

let report g key value = g.report <- (key, value) :: g.report

let num_int n = Num (float_of_int n)

let finish g =
  let checks = List.rev g.checks in
  let check_json (name, ok, why) =
    Obj ([ ("name", Str name); ("ok", Bool ok) ] @ if ok then [] else [ ("why", Str why) ])
  in
  let text =
    Json.to_string
      (Obj
         ([
            ("id", Str g.id);
            ("quick", Bool g.quick);
            ("cores", num_int (Domain.recommended_domain_count ()));
            ("jobs", num_int (Parallel.default_jobs ()));
          ]
         @ List.rev g.report
         @ [ ("checks", Arr (List.map check_json checks)) ]))
  in
  let path = Printf.sprintf "BENCH_%s.json" g.id in
  Out_channel.with_open_text path (fun oc -> output_string oc text);
  Printf.printf "%s: wrote %s\n%!" g.id path;
  let parses =
    match Json.of_string text with
    | Obj _ -> []
    | _ -> [ ("report.parses", false, "the report is not a JSON object") ]
    | exception Json.Parse_error msg -> [ ("report.parses", false, msg) ]
  in
  match List.filter (fun (_, ok, _) -> not ok) checks @ parses with
  | [] -> Printf.printf "%s: all %d checks passed\n%!" g.id (List.length checks)
  | failures ->
      List.iter
        (fun (name, _, why) -> Printf.eprintf "%s: CHECK FAILED: %s: %s\n%!" g.id name why)
        failures;
      failed := true

let experiment ~id ~title ~description body =
  {
    Bench_support.id;
    title;
    description;
    run =
      (fun ~quick ->
        let g = { id; quick; checks = []; report = [] } in
        body g;
        finish g);
  }

(* -- identity runs ------------------------------------------------------ *)

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

type 'a fanout = { serial : 'a; serial_s : float; parallel_s : float; identical : bool }

(* [f ~jobs:1], then [f] on the worker pool: the pool's own worker count,
   or 4 when that is 1, so the fan-out is exercised on any host. The
   fan-out is measurement machinery: its result must equal the serial
   one. *)
let serial_vs_parallel ?(same = ( = )) f =
  let jobs = match Parallel.default_jobs () with 1 -> 4 | n -> n in
  let serial, serial_s = timed (fun () -> f ~jobs:1) in
  let parallel, parallel_s = timed (fun () -> f ~jobs) in
  { serial; serial_s; parallel_s; identical = same serial parallel }

(* The timing half of a fan-out. On one core the ratio would time domain
   overhead, not speedup, so it is reported as null with the reason. *)
let speedup_json r =
  if Domain.recommended_domain_count () > 1 then
    [ ("parallel_seconds", Num r.parallel_s); ("speedup", Num (r.serial_s /. r.parallel_s)) ]
  else
    [
      ("parallel_seconds", Null);
      ("speedup", Null);
      ( "skipped_reason",
        Str "single-core host: parallel timing would measure domain overhead, not speedup" );
    ]

(* [run ()] plain, then again with a metrics registry recording. The
   instrumentation only reads the clock, so the two must be [same]; the
   [required] spans must be on the registry. *)
let metrics_identity g name ?(same = ( = )) ~required run =
  let plain = run () in
  let registry = Metrics.create () in
  let instrumented = Metrics.with_recording registry run in
  let identical = same plain instrumented in
  let names = Metrics.names registry in
  let missing = List.filter (fun n -> not (List.mem n names)) required in
  check g (name ^ ".metrics_identical") identical
    "metrics recording perturbed the run";
  check g (name ^ ".spans_recorded") (missing = [])
    ("spans missing from the registry: " ^ String.concat ", " missing);
  Printf.printf "%s: %s: metrics-on identical: %b; spans recorded: %s\n%!" g.id name
    identical
    (String.concat ", " (List.filter (fun n -> List.mem n names) required));
  [
    ("metrics_bit_identical", Bool identical);
    ("metrics_missing", Arr (List.map (fun n -> Str n) missing));
  ]

(* -- crash sweeps --------------------------------------------------------- *)

(* The sweeps' small closed-loop workload: 256 keys of 64-byte values,
   four clients. *)
let micro_scenario ~quick ~seed =
  {
    Scenario.default with
    Scenario.workload =
      Scenario.Micro
        {
          Workload.Microbench.default_config with
          Workload.Microbench.keys = 256;
          value_bytes = 64;
        };
    clients = 4;
    seed;
    warmup = Time.ms 1;
    duration = (if quick then Time.ms 10 else Time.ms 50);
  }

(* A crash window of [length] opening 2 ms after the load. *)
let surface ?(kinds = Crash_surface.default_kinds) scenario ~length =
  {
    (Crash_surface.default scenario) with
    Crash_surface.kinds;
    window_start = Time.ms 2;
    window_length = length;
  }

(* One enumeration replay per kind counts the window's boundaries; the
   stride is then chosen so the sweep explores about [target] points in
   total, stride 1 (every boundary) whenever the surface is small
   enough. *)
let autostride g config ~target =
  let total =
    List.fold_left
      (fun acc kind ->
        acc + (Crash_surface.enumerate config kind).Crash_surface.e_boundaries)
      0 config.Crash_surface.kinds
  in
  let stride = max 1 (total / target) in
  Printf.printf "%s: %s surface has %d boundaries, stride %d...\n%!" g.id
    (Scenario.mode_name config.Crash_surface.scenario.Scenario.mode)
    total stride;
  { config with Crash_surface.stride }

(* Breaking points are listed individually (capped) so a red protected
   sweep pinpoints the boundary to replay, and a teeth sweep shows what
   bit. *)
let max_breaks_listed = 20

let sweep_json ?label (r : Crash_surface.result) =
  let sum f = List.fold_left (fun acc v -> acc + f v) 0 r.Crash_surface.r_verdicts in
  let count p = sum (fun v -> if p v then 1 else 0) in
  let break_json (v : Crash_surface.verdict) =
    Obj
      [
        ("kind", Str (Crash_surface.kind_name v.Crash_surface.v_kind));
        ("event_index", num_int v.Crash_surface.v_event_index);
        ("at_ns", num_int v.Crash_surface.v_at_ns);
        ("acked", num_int v.Crash_surface.v_acked);
        ("lost", num_int v.Crash_surface.v_lost);
        ("extra", num_int v.Crash_surface.v_extra);
        ("state_exact", Bool v.Crash_surface.v_state_exact);
        ("diff_count", num_int v.Crash_surface.v_diff_count);
        ("invariant_violations", num_int v.Crash_surface.v_invariant_violations);
        ("buffered_at_cut", num_int v.Crash_surface.v_buffered_at_cut);
      ]
  in
  let kind_json (k : Crash_surface.kind_summary) =
    Obj
      [
        ("kind", Str (Crash_surface.kind_name k.Crash_surface.k_kind));
        ("boundaries", num_int k.Crash_surface.k_boundaries);
        ("explored", num_int k.Crash_surface.k_explored);
        ("contract_breaks", num_int k.Crash_surface.k_contract_breaks);
        ("lost", num_int k.Crash_surface.k_lost);
      ]
  in
  let breaks = List.filter (fun v -> not v.Crash_surface.v_contract_ok) r.Crash_surface.r_verdicts in
  Obj
    ((match label with Some l -> [ ("config", Str l) ] | None -> [])
    @ [
        ("mode", Str (Scenario.mode_name r.Crash_surface.r_mode));
        ("stride", num_int r.Crash_surface.r_stride);
        ("kinds", Arr (List.map kind_json r.Crash_surface.r_kinds));
        ("total_boundaries", num_int r.Crash_surface.r_total_boundaries);
        ("explored", num_int r.Crash_surface.r_explored);
        ("contract_breaks", num_int r.Crash_surface.r_contract_breaks);
        ("lost_total", num_int r.Crash_surface.r_lost_total);
        ("lossy_points", num_int (count (fun v -> v.Crash_surface.v_lost > 0)));
        ("tenant_acked_total", num_int (sum (fun v -> v.Crash_surface.v_tenant_acked)));
        ("tenant_lost_total", num_int (sum (fun v -> v.Crash_surface.v_tenant_lost)));
        ("tenant_breaks_total", num_int (sum (fun v -> v.Crash_surface.v_tenant_breaks)));
        ( "breaks",
          Arr (List.map break_json (List.filteri (fun i _ -> i < max_breaks_listed) breaks)) );
      ])

(* -- steady runs ---------------------------------------------------------- *)

(* Every scalar a steady run reports: identical records, identical runs. *)
let steady_json (r : Experiment.steady_result) =
  [
    ("mode", Str (Scenario.mode_name r.Experiment.mode));
    ("clients", num_int r.Experiment.clients);
    ("committed", num_int r.Experiment.committed_in_window);
    ("throughput", Num r.Experiment.throughput);
    ("p50_us", Num r.Experiment.latency_p50_us);
    ("p99_us", Num r.Experiment.latency_p99_us);
    ("log_writes", num_int r.Experiment.physical_log_writes);
    ("wal_forces", num_int r.Experiment.wal_forces);
  ]
