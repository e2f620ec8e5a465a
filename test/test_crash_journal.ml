(* Differential oracle for the journal-based crash sweep.

   The journal sweep reconstructs post-crash media from one recorded
   reference run instead of re-executing the scenario per crash point.
   These tests pin the reconstruction to the full-replay semantics the
   hard way: with media digests enabled, every verdict — including a CRC
   over the entire durable extent of both the log and the data volume —
   must be bit-identical between the two paths, at every point, for all
   three crash kinds. *)

open Desim
open Testu
open Harness

let scenario =
  {
    Scenario.default with
    Scenario.mode = Scenario.Rapilog;
    workload =
      Scenario.Micro
        {
          Workload.Microbench.default_config with
          Workload.Microbench.keys = 64;
          value_bytes = 32;
        };
    clients = 2;
    seed = 99L;
  }

let tiny =
  {
    (Crash_surface.default scenario) with
    Crash_surface.window_start = Time.ms 2;
    window_length = Time.ms 2;
    stride = 25;
    tight_window = Time.ms 20;
    tight_buffer_bytes = 64 * 1024;
    media_digests = true;
  }

let show_verdict v =
  Printf.sprintf
    "%s@%d(%dns): acked=%d lost=%d extra=%d exact=%b diff=%d inv=%d buf=%d \
     crc=%d ok=%b"
    (Crash_surface.kind_name v.Crash_surface.v_kind)
    v.Crash_surface.v_event_index v.Crash_surface.v_at_ns
    v.Crash_surface.v_acked v.Crash_surface.v_lost v.Crash_surface.v_extra
    v.Crash_surface.v_state_exact v.Crash_surface.v_diff_count
    v.Crash_surface.v_invariant_violations v.Crash_surface.v_buffered_at_cut
    v.Crash_surface.v_media_crc v.Crash_surface.v_contract_ok

let check_verdicts_identical name expected actual =
  Alcotest.(check int)
    (name ^ ": point count")
    (List.length expected) (List.length actual);
  List.iter2
    (fun e a ->
      if e <> a then
        Alcotest.failf "%s: verdict mismatch\n  replay : %s\n  journal: %s" name
          (show_verdict e) (show_verdict a))
    expected actual

let check_config name config =
  let replay = Crash_surface.sweep ~jobs:1 config in
  let journal = Crash_surface.sweep_journal ~jobs:1 config in
  Alcotest.(check bool)
    (Printf.sprintf "%s: points explored (%d)" name replay.Crash_surface.r_explored)
    true
    (replay.Crash_surface.r_explored >= 6);
  check_verdicts_identical (name ^ ": journal vs replay")
    replay.Crash_surface.r_verdicts journal.Crash_surface.r_verdicts;
  Alcotest.(check bool) (name ^ ": summaries identical") true (replay = journal)

let journal_matches_replay () = check_config "hdd" tiny

(* The same oracle over the NVMe model: µs-scale drain timing, the
   queue-depth-deep data members tearing several in-flight programs per
   point, and the zoned device's sector geometry all must reconstruct
   bit-identically. *)
let journal_matches_replay_nvme () =
  check_config "nvme"
    {
      tiny with
      Crash_surface.scenario =
        { scenario with Scenario.device = Scenario.Nvme Storage.Nvme.default };
    }

(* And over parallel WAL streams: the incremental engine steps aside
   (full recovery per point), but media synthesis — including the
   multi-admission os-crash gap, one per stream — must still match the
   replay exactly. *)
let journal_matches_replay_streams () =
  check_config "hdd-s2"
    { tiny with Crash_surface.scenario = { scenario with Scenario.log_streams = 2 } }

(* The journal engine at every boundary in the window (stride 1), media
   digest per point. The full-replay oracle would take minutes here, so
   the stride-1 sweep is tied to it through the strided one: a point's
   verdict must not depend on which other points were swept with it (a
   different candidate set folds the journal in different chunks), so
   the stride-1 verdicts at the strided candidates must equal the
   strided sweep's, which {!journal_matches_replay} pins to replay. *)
let journal_every_boundary () =
  let every = Crash_surface.sweep_journal ~jobs:4 { tiny with Crash_surface.stride = 1 } in
  let strided = Crash_surface.sweep_journal ~jobs:1 tiny in
  List.iter
    (fun ks ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: oracle scale (%d points)"
           (Crash_surface.kind_name ks.Crash_surface.k_kind)
           ks.Crash_surface.k_explored)
        true
        (ks.Crash_surface.k_explored >= 150))
    every.Crash_surface.r_kinds;
  Alcotest.(check int) "no contract breaks" 0 every.Crash_surface.r_contract_breaks;
  let key v = (v.Crash_surface.v_kind, v.Crash_surface.v_event_index) in
  let sampled = List.map key strided.Crash_surface.r_verdicts in
  check_verdicts_identical "stride 1 vs strided" strided.Crash_surface.r_verdicts
    (List.filter (fun v -> List.mem (key v) sampled) every.Crash_surface.r_verdicts)

let journal_parallel_equals_serial () =
  let serial = Crash_surface.sweep_journal ~jobs:1 tiny in
  let parallel = Crash_surface.sweep_journal ~jobs:4 tiny in
  Alcotest.(check bool) "verdicts bit-identical" true
    (serial.Crash_surface.r_verdicts = parallel.Crash_surface.r_verdicts);
  Alcotest.(check bool) "results identical" true (serial = parallel)

let journal_support_is_gated () =
  Alcotest.(check bool) "rapilog striped disk supported" true
    (Crash_surface.journal_supported scenario);
  Alcotest.(check bool) "non-rapilog unsupported" false
    (Crash_surface.journal_supported
       { scenario with Scenario.mode = Scenario.Native_sync });
  Alcotest.(check bool) "single disk unsupported" false
    (Crash_surface.journal_supported { scenario with Scenario.single_disk = true });
  match
    Crash_surface.sweep_journal ~jobs:1
      {
        tiny with
        Crash_surface.scenario =
          { scenario with Scenario.mode = Scenario.Native_sync };
      }
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unsupported configuration accepted"

let suites =
  [
    ( "harness.crash_journal",
      [
        case "journal sweep bit-identical to full replay" journal_matches_replay;
        case "journal sweep matches replay on nvme" journal_matches_replay_nvme;
        case "journal sweep matches replay with 2 streams"
          journal_matches_replay_streams;
        case "journal parallel equals serial" journal_parallel_equals_serial;
        case "journal sweep at every boundary agrees with strided"
          journal_every_boundary;
        case "journal support is gated" journal_support_is_gated;
      ] );
  ]
