(* crash-surface: the exhaustive crash-point gate, evidence for the
   paper's claim 3 (no committed transaction is lost across guest-OS
   crashes and power failures).

   Sweeps with fixed seeds:
   - protected: the RapiLog configuration, every crash kind, by full
     replay. Expected contract breaks: zero.
   - journal: the journal-reconstruction sweep over the same strided
     candidate set, timed against full replay, plus the differential
     oracle: both paths re-run with media digests enabled, and every
     verdict, digest included, must be bit-identical.
   - baseline: the unprotected write-cache configuration under a power
     cut. Expected contract breaks: non-zero, the teeth that prove the
     sweep can see durability loss at all.
   - crash-surface-full adds a stride-1 journal sweep over every
     enumerated boundary of every kind: zero contract breaks at all of
     the tens of thousands of crash points, the claim-3 statement the
     sampled experiments cannot make.

   Both sweep engines must be bit-identical across worker counts. *)

open Desim
open Harness
open Harness.Json

let gate ~full (g : Gate.t) =
  let quick = g.Gate.quick in
  let surface mode =
    let scenario = { (Gate.micro_scenario ~quick ~seed:20_2608L) with Scenario.mode } in
    (* Quick is tight but sound: the 20 ms budget must still cover the
       worst-case post-cut drain — an in-flight write, a seek settle, a
       full rotation (~8.3 ms at 7200 rpm) and the buffer transfer. A
       budget below that violates the logger's admission precondition
       and the sweep would rightly report losses. *)
    if quick then
      { (Gate.surface scenario ~length:(Time.ms 6)) with Crash_surface.tight_buffer_bytes = 64 * 1024 }
    else Crash_surface.default scenario
  in
  let target = if quick then 24 else 600 in
  let min_explored = if quick then 12 else 500 in

  (* -- protected sweep: RapiLog, every crash kind, full replay --------- *)
  let protected = Gate.autostride g (surface Scenario.Rapilog) ~target in
  let replay = Gate.serial_vs_parallel (fun ~jobs -> Crash_surface.sweep ~jobs protected) in
  let r = replay.Gate.serial in
  Printf.printf
    "crash-surface: rapilog %d points: %d contract breaks | replay serial %.2fs, \
     parallel %.2fs, bit-identical: %b\n%!"
    r.Crash_surface.r_explored r.Crash_surface.r_contract_breaks replay.Gate.serial_s
    replay.Gate.parallel_s replay.Gate.identical;
  Gate.check g "protected.breaks" (r.Crash_surface.r_contract_breaks = 0)
    (Printf.sprintf "rapilog sweep found %d contract breaks (want 0)"
       r.Crash_surface.r_contract_breaks);
  Gate.check g "protected.parallel_identical" replay.Gate.identical
    "parallel sweep verdicts differ from serial";
  Gate.check g "protected.explored" (r.Crash_surface.r_explored >= min_explored)
    (Printf.sprintf "explored only %d crash points (want >= %d)" r.Crash_surface.r_explored
       min_explored);
  Gate.check g "protected.kinds" (List.length r.Crash_surface.r_kinds >= 2)
    "fewer than two crash kinds explored";
  let span_ns s = Gate.num_int (Time.span_to_ns s) in
  Gate.report g "window"
    (Obj
       [
         ("start_after_load_ns", span_ns protected.Crash_surface.window_start);
         ("length_ns", span_ns protected.Crash_surface.window_length);
         ("tight_window_ns", span_ns protected.Crash_surface.tight_window);
         ("tight_buffer_bytes", Gate.num_int protected.Crash_surface.tight_buffer_bytes);
       ]);
  Gate.report g "protected"
    (Obj
       ([ ("sweep", Gate.sweep_json r); ("serial_seconds", Num replay.Gate.serial_s) ]
       @ Gate.speedup_json replay
       @ [ ("bit_identical", Bool replay.Gate.identical) ]));

  (* -- journal sweep: same candidates, one recorded run per kind ------- *)
  let journal =
    Gate.serial_vs_parallel (fun ~jobs -> Crash_surface.sweep_journal ~jobs protected)
  in
  let j = journal.Gate.serial in
  let replay_vs_journal = replay.Gate.serial_s /. journal.Gate.serial_s in
  Printf.printf
    "crash-surface: journal sweep %d points in %.2fs — %.1fx over full replay \
     (%.2fs); parallel bit-identical: %b\n%!"
    j.Crash_surface.r_explored journal.Gate.serial_s replay_vs_journal
    replay.Gate.serial_s journal.Gate.identical;
  (* Differential oracle: every strided point is checked — the verdict
     lists, including a CRC of the entire post-crash durable media, must
     be bit-identical. *)
  let oracle_config = { protected with Crash_surface.media_digests = true } in
  let oracle_replay = Crash_surface.sweep ~jobs:1 oracle_config in
  let oracle_journal = Crash_surface.sweep_journal ~jobs:1 oracle_config in
  let oracle_identical =
    oracle_replay.Crash_surface.r_verdicts = oracle_journal.Crash_surface.r_verdicts
  in
  let oracle_points = oracle_replay.Crash_surface.r_explored in
  let oracle_min_per_kind =
    List.fold_left
      (fun acc k -> min acc k.Crash_surface.k_explored)
      max_int oracle_replay.Crash_surface.r_kinds
  in
  Printf.printf
    "crash-surface: oracle: %d points (min %d per kind), digests bit-identical: %b\n%!"
    oracle_points oracle_min_per_kind oracle_identical;
  Gate.check g "journal.breaks" (j.Crash_surface.r_contract_breaks = 0)
    "journal sweep found contract breaks (want 0)";
  Gate.check g "journal.parallel_identical" journal.Gate.identical
    "journal parallel verdicts differ from serial";
  Gate.check g "journal.oracle_identical" oracle_identical
    "journal reconstruction differs from full replay under digests";
  if not quick then
    Gate.check g "journal.oracle_coverage" (oracle_min_per_kind >= 50)
      (Printf.sprintf "oracle covered only %d points on some kind (want >= 50)"
         oracle_min_per_kind);
  Gate.report g "journal"
    (Obj
       [
         ("sweep", Gate.sweep_json j);
         ("seconds", Num journal.Gate.serial_s);
         ("replay_serial_seconds", Num replay.Gate.serial_s);
         ("replay_vs_journal_speedup", Num replay_vs_journal);
         ("parallel_bit_identical", Bool journal.Gate.identical);
         ( "oracle",
           Obj
             [
               ("points", Gate.num_int oracle_points);
               ("min_per_kind", Gate.num_int oracle_min_per_kind);
               ("media_digests", Bool true);
               ("bit_identical", Bool oracle_identical);
             ] );
       ]);

  (* -- full surface: every boundary of every kind, journal path -------- *)
  if full then begin
    let exhaustive, full_s =
      Gate.timed (fun () ->
          Crash_surface.sweep_journal { protected with Crash_surface.stride = 1 })
    in
    let e = exhaustive in
    Printf.printf
      "crash-surface: FULL surface: %d/%d boundaries, %d kinds, %d contract breaks, \
       %d lost (%.2fs)\n%!"
      e.Crash_surface.r_explored e.Crash_surface.r_total_boundaries
      (List.length e.Crash_surface.r_kinds)
      e.Crash_surface.r_contract_breaks e.Crash_surface.r_lost_total full_s;
    Gate.check g "full.breaks" (e.Crash_surface.r_contract_breaks = 0)
      "FULL sweep found contract breaks (want 0 at every boundary)";
    Gate.check g "full.lost" (e.Crash_surface.r_lost_total = 0)
      "FULL sweep lost acked commits (want 0 at every boundary)";
    Gate.check g "full.coverage"
      (e.Crash_surface.r_explored = e.Crash_surface.r_total_boundaries)
      (Printf.sprintf "FULL sweep explored %d of %d boundaries" e.Crash_surface.r_explored
         e.Crash_surface.r_total_boundaries);
    Gate.report g "full" (Obj [ ("sweep", Gate.sweep_json e); ("seconds", Num full_s) ])
  end;

  (* -- baseline teeth: unprotected write cache under a power cut ------- *)
  let baseline =
    Gate.autostride g
      { (surface Scenario.Unsafe_wcache) with Crash_surface.kinds = [ Crash_surface.Power_cut ] }
      ~target:(target / 3)
  in
  let b, baseline_s = Gate.timed (fun () -> Crash_surface.sweep baseline) in
  Printf.printf
    "crash-surface: unsafe-wcache %d points: %d contract breaks, %d acked commits \
     lost (%.2fs)\n%!"
    b.Crash_surface.r_explored b.Crash_surface.r_contract_breaks
    b.Crash_surface.r_lost_total baseline_s;
  Gate.check g "baseline.breaks" (b.Crash_surface.r_contract_breaks >= 1)
    "unsafe-wcache sweep found no contract break (teeth are missing)";
  Gate.check g "baseline.lost" (b.Crash_surface.r_lost_total >= 1)
    "unsafe-wcache sweep lost no acked commit (teeth are missing)";
  Gate.report g "baseline" (Obj [ ("sweep", Gate.sweep_json b); ("seconds", Num baseline_s) ])

let experiments =
  [
    Gate.experiment ~id:"crash-surface"
      ~title:"Crash-surface gate: replay and journal sweeps, oracle, teeth"
      ~description:
        "crash-point sweep gate: rapilog clean, journal == replay, write cache breaks"
      (gate ~full:false);
    Gate.experiment ~id:"crash-surface-full"
      ~title:"Crash-surface gate plus a stride-1 journal sweep of every boundary"
      ~description:"crash-surface plus every boundary of every kind (stride 1, journal)"
      (gate ~full:true);
  ]
