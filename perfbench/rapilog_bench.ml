(* The repository benchmark. See perfbench/README.md.

   rapilog_bench.exe --workload NAME --seed N --seconds S --trace 0|1
                     [--size full|tiny]

   Runs one workload for about S seconds of host time, checks its
   outputs, and prints as the last line of stdout one JSON object with
   the keys correct, attempted, failed and metrics. With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 the per-layer ones,
   from a separate run with the Desim.Metrics registry installed. Exits
   1 when any check fails. *)

open Desim
module B = Scen.Builder
module W = Workloads

let now = Unix.gettimeofday
let median = Probes.median

type metric = Layers.metric = { name : string; unit_ : string; value : float }

let m = Layers.m

(* -- output ------------------------------------------------------------- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value) x.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let print_table title metrics =
  if metrics <> [] then begin
    Printf.printf "%s\n" title;
    List.iter (fun x -> Printf.printf "  %-40s %16.6g %s\n" x.name x.value x.unit_) metrics
  end

(* -- checks ------------------------------------------------------------- *)

let failures = ref []
let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt
let check cond fmt = Printf.ksprintf (fun s -> if not cond then failures := s :: !failures) fmt

(* Nearest-rank percentile of a sorted array. *)
let pct a q =
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let beyond a v = Array.fold_left (fun acc x -> if x > v then acc + 1 else acc) 0 a

(* Open-loop arrivals must land within five standard deviations of the
   Poisson closed form. *)
let open_loop_tolerance expected = 5. *. sqrt expected

let check_steady label (s : Steady.sim) =
  List.iter (fun f -> fail "%s: %s" label f) (Steady.failures s);
  if s.Steady.expected_arrivals > 0. then begin
    let dev = Float.abs (float_of_int s.Steady.arrivals -. s.Steady.expected_arrivals) in
    check
      (dev <= open_loop_tolerance s.Steady.expected_arrivals)
      "%s: %d arrivals vs %.1f expected (tolerance 5 sqrt(n) = %.1f)" label s.Steady.arrivals
      s.Steady.expected_arrivals
      (open_loop_tolerance s.Steady.expected_arrivals)
  end

(* -- isolation ------------------------------------------------------------ *)

(* Every unit, probe and sweep runs in a child process forked from this
   parent, whose own heap stays small. Each child therefore starts from
   the same heap, and the GC does the same work inside its timed
   regions; in one long-lived process the garbage of earlier units moves
   major-GC work in and out of a unit's timed loop from one unit to the
   next. The child sends back its result, the checks it failed and its
   top heap, and the parent waits for it to end. Nothing raised in the
   child gets past [in_child]: the child always ends there. *)

type 'a outcome = Done of 'a | Raised of string

let peak_heap_words = ref 0

let describe_status = function
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "stopped by signal %d" n

let in_child (f : unit -> 'a) : 'a =
  Gc.compact ();
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      let code =
        try
          Unix.close rd;
          failures := [];
          let outcome = try Done (f ()) with e -> Raised (Printexc.to_string e) in
          let oc = Unix.out_channel_of_descr wr in
          Marshal.to_channel oc (outcome, !failures, (Gc.quick_stat ()).Gc.top_heap_words) [];
          close_out oc;
          flush_all ();
          0
        with _ -> 2
      in
      Unix._exit code
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let got : ('a outcome * string list * int) option =
        try Some (Marshal.from_channel ic) with End_of_file | Failure _ -> None
      in
      close_in ic;
      let _, status = Unix.waitpid [] pid in
      match got with
      | Some (outcome, failed, top) -> (
          failures := failed @ !failures;
          peak_heap_words := max !peak_heap_words top;
          match outcome with Done x -> x | Raised e -> failwith e)
      | None -> failwith ("a child process ended without a result: " ^ describe_status status))

(* -- running ------------------------------------------------------------ *)

(* With [~calibrate], the unit's process first times the host-speed
   kernel (see Calib), before anything else. *)
type unit_run = { scen_s : float; run : Steady.run; kernel_s : float option }

let steady_unit ?(calibrate = false) ?registry ?keep_records ?recoveries pipeline =
  in_child @@ fun () ->
  let kernel_s = if calibrate then Some (Calib.time_s ()) else None in
  let t0 = now () in
  let config = B.build pipeline in
  let scen_s = now () -. t0 in
  let run = Steady.run ?registry ?keep_records ?recoveries config in
  let h = run.Steady.host in
  Printf.printf "  unit: setup %.4f s, loop %.4f s, recovery %.4f s\n%!"
    (scen_s +. Steady.setup_s h) h.Steady.loop_s h.Steady.recovery_s;
  { scen_s; run; kernel_s }

(* Repeat [f] until [seconds] of host time have passed, and at least
   [min] times. *)
let repeat ~seconds ~min f =
  let t0 = now () in
  let rec go acc k =
    let acc = f () :: acc in
    let elapsed = now () -. t0 in
    if k + 1 >= min && elapsed *. float_of_int (k + 2) /. float_of_int (k + 1) > seconds then
      List.rev acc
    else go acc (k + 1)
  in
  go [] 0

(* The largest top heap of any of the run's processes. *)
let peak_heap_mb () =
  let top = max !peak_heap_words (Gc.quick_stat ()).Gc.top_heap_words in
  float_of_int (top * (Sys.word_size / 8)) /. 1e6

(* -- max rate at the SLO (micro-hdd-open) ------------------------------- *)

(* A probe meets the SLO when the p99 sojourn is at most 1 ms and commits
   are at least 99% of arrivals in the window. *)
let slo_p99_us = 1_000.
let slo_commit_share = 0.99

(* Bisection on the offered rate to 1% resolution. The lower bracket must
   meet the SLO, else the search fails: it never extrapolates. The upper
   bracket must miss it, doubling until it does. Prints every probe. *)
let max_rate_at_slo ~size ~seed =
  let meets rate =
    let s = (steady_unit (W.micro_probe ~size ~seed ~rate)).run.Steady.sim in
    List.iter (fun f -> fail "probe at %.0f txn/s: %s" rate f) (Steady.failures s);
    let lat = Array.append s.Steady.write_lat s.Steady.read_lat in
    Array.sort compare lat;
    let p99 = pct lat 0.99 in
    let share = float_of_int (Array.length lat) /. float_of_int (max 1 s.Steady.arrivals) in
    let ok = p99 <= slo_p99_us && share >= slo_commit_share in
    Printf.printf "  probe rate=%.1f txn/s  p99_sojourn=%.1f us  commit_share=%.4f  %s\n%!" rate p99
      share
      (if ok then "meets" else "misses");
    ok
  in
  let lo = W.pick size 8_000. 2_000. in
  if not (meets lo) then begin
    fail "max_rate_at_slo: the lower bracket %.0f txn/s already misses the SLO" lo;
    lo
  end
  else begin
    let hi = ref (lo *. 8.) in
    while meets !hi do
      if !hi > 1e6 then failwith "max_rate_at_slo: no rate up to 1M txn/s misses the SLO";
      hi := !hi *. 2.
    done;
    let lo = ref lo in
    while (!hi -. !lo) /. !lo > 0.01 do
      let mid = (!lo +. !hi) /. 2. in
      if meets mid then lo := mid else hi := mid
    done;
    Printf.printf "  max_rate_at_slo in [%.1f, %.1f) txn/s, resolution %.2f%%\n" !lo !hi
      ((!hi -. !lo) /. !lo *. 100.);
    !lo
  end

(* -- crash sweep -------------------------------------------------------- *)

(* The verdicts stay in the child; the checks need only the counts. *)
let run_sweep ~size ~seed =
  in_child @@ fun () ->
  let config = W.sweep_config ~size ~seed in
  let t0 = now () in
  let r = Harness.Crash_surface.sweep_journal ~jobs:W.sweep_jobs config in
  ({ r with Harness.Crash_surface.r_verdicts = [] }, now () -. t0)

let check_sweep (r : Harness.Crash_surface.result) =
  let open Harness.Crash_surface in
  check (r.r_contract_breaks = 0) "crash sweep: %d contract breaks" r.r_contract_breaks;
  check (r.r_lost_total = 0) "crash sweep: %d acknowledged commits lost" r.r_lost_total;
  check (r.r_explored > 0) "crash sweep explored no points";
  Printf.printf "  crash sweep: %d points of %d boundaries, %d breaks, %d lost\n" r.r_explored
    r.r_total_boundaries r.r_contract_breaks r.r_lost_total

(* -- end-to-end run ----------------------------------------------------- *)

let end_to_end ~name ~size ~seed ~seconds =
  let t_start = now () in
  let extras = ref [] in
  (* The max-rate search and the crash sweep are deterministic work done
     once per run; the steady units fill the rest of the time. *)
  if name = "micro-hdd-open" then begin
    extras := [ m "max_rate_at_slo" "txn/s" (max_rate_at_slo ~size ~seed) ]
  end;
  let sweep = if W.is_sweep name then Some (run_sweep ~size ~seed) else None in
  let pipeline = W.steady name ~size ~seed in
  (* Before every unit, this parent times the host-speed kernel from a
     compacted heap, and the unit's process times it again (see Calib).
     A repeat keeps only its host times, once its simulated results
     match the first unit's. *)
  let kernels = ref [] and first = ref None in
  let timed_unit () =
    Gc.compact ();
    let before = Calib.time_s () in
    let u = steady_unit ~calibrate:true ~recoveries:(W.recoveries name) pipeline in
    let inside = Option.get u.kernel_s in
    Printf.printf "  host-speed kernel: %.4f s in this process, %.4f s in the unit's\n" before inside;
    kernels := before :: inside :: !kernels;
    (match !first with
    | None -> first := Some (u.run.Steady.sim, Steady.digest u.run.Steady.sim)
    | Some (_, digest) ->
        check (Steady.digest u.run.Steady.sim = digest) "%s: repeats differ in simulated results"
          name);
    (u.scen_s, u.run.Steady.host)
  in
  let units = repeat ~seconds:(seconds -. (now () -. t_start)) ~min:2 timed_unit in
  let first = fst (Option.get !first) in
  check_steady name first;
  let w = first.Steady.write_lat and r = first.Steady.read_lat in
  let p50 = pct w 0.5 and p999 = pct w 0.999 in
  check (p999 > p50) "%s: commit_p999_us %.3f is not above commit_p50_us %.3f" name p999 p50;
  let committed = Steady.committed first in
  Printf.printf "%s seed=%d: %d repeats; window %d write commits (%d beyond p99.9), %d reads\n" name
    seed (List.length units) (Array.length w) (beyond w p999) (Array.length r);
  if first.Steady.expected_arrivals > 0. then
    Printf.printf "  open loop: %d arrivals in the window, closed form %.1f\n" first.Steady.arrivals
      first.Steady.expected_arrivals;
  if Array.length r > 0 then
    extras := !extras @ [ m "read_p50_us" "us" (pct r 0.5); m "read_p999_us" "us" (pct r 0.999) ];
  (* Host rates and times are taken over the total time of all units
     (the timed loops, every repeat of recovery); set-up is the median
     over units. The result line gives them in reference-host seconds. *)
  let total f = List.fold_left (fun acc (_, h) -> acc +. f h) 0. units in
  let loop_s = total (fun h -> h.Steady.loop_s) /. float_of_int (List.length units) in
  let recoveries = total (fun h -> float_of_int h.Steady.recoveries) in
  let recovery_s = total (fun h -> h.Steady.recovery_total_s) /. recoveries in
  let setup_s = median (List.map (fun (scen_s, h) -> scen_s +. Steady.setup_s h) units) in
  let kernel_s = median !kernels in
  let scale = Calib.reference_s /. kernel_s in
  Printf.printf
    "  as measured: loop %.4f s (mean), recovery %.4f s (mean), setup %.4f s (median); \
     host-speed kernel %.4f s (median of %d), scale %.4f\n"
    loop_s recovery_s setup_s kernel_s (List.length !kernels) scale;
  (* Attempts are transactions offered in the window; failures are
     acknowledged commits the end-of-run power cut lost. *)
  let attempted = ref (if first.Steady.arrivals > 0 then first.Steady.arrivals else committed) in
  let failed = ref first.Steady.lost in
  Option.iter
    (fun (r0, secs) ->
      check_sweep r0;
      let points = r0.Harness.Crash_surface.r_explored in
      extras := !extras @ [ m "sweep_points_per_s" "points/s" (float_of_int points /. secs) ];
      (* The sweep's attempts are its crash points. *)
      attempted := points;
      failed := !failed + r0.Harness.Crash_surface.r_contract_breaks)
    sweep;
  print_table "workload metrics (printed only here, see README):" !extras;
  ( [
      m "commit_p50_us" "us" p50;
      m "commit_p999_us" "us" p999;
      m "sim_tps" "txn/s" (float_of_int committed /. first.Steady.window_s);
      m "host_txn_per_s" "txn/s" (float_of_int committed /. (loop_s *. scale));
      m "recovery_s" "s" (recovery_s *. scale);
      m "setup_s" "s" (setup_s *. scale);
      m "peak_heap_mb" "MB" (peak_heap_mb ());
    ],
    !attempted,
    !failed )

(* -- traced run --------------------------------------------------------- *)

let traced_sweep ~size ~seed =
  let open Harness.Crash_surface in
  let boundaries, enumerate_s =
    in_child @@ fun () ->
    let config = W.sweep_config ~size ~seed in
    let t0 = now () in
    let boundaries =
      List.fold_left (fun acc kind -> acc + (enumerate config kind).e_boundaries) 0 config.kinds
    in
    (boundaries, now () -. t0)
  in
  let r, sweep_s = run_sweep ~size ~seed in
  check (boundaries = r.r_total_boundaries) "crash sweep: enumerate saw %d boundaries, the sweep %d"
    boundaries r.r_total_boundaries;
  check_sweep r;
  {
    Layers.enumerate_s;
    sweep_s;
    points = r.r_explored;
    breaks = r.r_contract_breaks;
    lost = r.r_lost_total;
  }

let per_layer ~name ~size ~seed ~seconds =
  let t_start = now () in
  let pipeline = W.steady name ~size ~seed in
  let sweep = if W.is_sweep name then Some (traced_sweep ~size ~seed) else None in
  (* Untraced and traced runs alternate; the traced one must reproduce the
     untraced one's simulated results bit for bit. *)
  let first = ref true in
  let pairs =
    repeat ~seconds:(seconds -. (now () -. t_start)) ~min:1 (fun () ->
        let plain = steady_unit ~keep_records:!first pipeline in
        first := false;
        let traced = steady_unit ~registry:(Metrics.create ()) pipeline in
        check
          (Steady.digest plain.run.Steady.sim = Steady.digest traced.run.Steady.sim)
          "%s: traced simulated results differ from untraced" name;
        (plain, traced))
  in
  let plain, traced = List.hd pairs in
  check_steady name traced.run.Steady.sim;
  let s = plain.run.Steady.sim in
  let overhead =
    median
      (List.map
         (fun (p, t) -> t.run.Steady.host.Steady.total_s /. p.run.Steady.host.Steady.total_s)
         pairs)
  in
  let inputs =
    {
      Layers.plain = plain.run;
      traced = traced.run;
      scen_s = plain.scen_s;
      overhead;
      queue_ns =
        Probes.queue_ns_per_event ~population:s.Steady.max_pending
          ~events:(min s.Steady.window_events 2_000_000);
      codec = Probes.codec ~limit:50_000 plain.run.Steady.records;
      gen_ns = Probes.gen_ns_per_txn (B.build pipeline) ~txns:20_000;
      sweep;
    }
  in
  let reconcile = Layers.reconcile inputs in
  List.iter
    (fun ((x : metric), ok) ->
      check ok "reconciliation %s = %.4f is out of tolerance" x.name x.value)
    reconcile;
  Printf.printf "%s seed=%d: %d traced/untraced pairs, tracing overhead %.3fx\n" name seed
    (List.length pairs) overhead;
  Printf.printf "host spans of the first untraced unit (start, end in s; parent):\n";
  List.iter
    (fun (name, a, b, parent) -> Printf.printf "  %-28s %10.6f %10.6f  %s\n" name a b parent)
    (Layers.spans inputs);
  Option.iter
    (fun sw ->
      Printf.printf "  %-28s %10.6f\n  %-28s %10.6f\n" "Crash_surface.enumerate (s)"
        sw.Layers.enumerate_s "Crash_surface.sweep_journal (s)" sw.Layers.sweep_s)
    sweep;
  let attempted, failed =
    match sweep with
    | Some sw -> (sw.Layers.points, sw.Layers.breaks + s.Steady.lost)
    | None ->
        ((if s.Steady.arrivals > 0 then s.Steady.arrivals else Steady.committed s), s.Steady.lost)
  in
  let metrics = Layers.metrics inputs in
  List.iter
    (fun x ->
      if x.value = 0. then Printf.printf "  %s reads 0: %s\n" x.name (Layers.why_zero x.name))
    metrics;
  (metrics @ List.map fst reconcile, attempted, failed)

(* -- main --------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let size = ref W.Full in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat "|" W.names);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ( "--size",
        Arg.Symbol ([ "full"; "tiny" ], fun s -> size := if s = "tiny" then W.Tiny else W.Full),
        " run size (tiny is for the self-test)" );
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "rapilog_bench.exe";
  if not (List.mem !workload W.names) || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "usage: rapilog_bench.exe --workload NAME --seed N --seconds S --trace 0|1";
    exit 2
  end;
  let run = if !trace = 1 then per_layer else end_to_end in
  let metrics, attempted, failed =
    try run ~name:!workload ~size:!size ~seed:!seed ~seconds:!seconds
    with e ->
      fail "%s raised %s" !workload (Printexc.to_string e);
      ([], 1, 1)
  in
  List.iter
    (fun x -> check (Float.is_finite x.value) "metric %s is not a finite number" x.name)
    metrics;
  print_table "metrics:" metrics;
  let errors = List.rev !failures in
  List.iter (fun e -> Printf.printf "CHECK FAILED: %s\n" e) errors;
  print_result ~correct:(errors = [] && failed = 0) ~attempted ~failed metrics;
  if errors <> [] || failed > 0 then exit 1
