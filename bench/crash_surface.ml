(* The exhaustive crash-surface harness: machine-readable evidence for
   the paper's claim 3 (no committed transaction is lost across guest-OS
   crashes and power failures).

   Sweeps with fixed seeds:
   - protected: the RapiLog configuration, every crash kind, via the
     PR 2 full-replay sweep. Expected contract breaks: zero.
   - baseline: the unprotected write-cache configuration under a power
     cut. Expected contract breaks: non-zero — the teeth that prove the
     sweep can actually see durability loss.
   - with [--journal]: the journal-reconstruction sweep over the same
     strided candidate set, timed against the full-replay sweep
     (old-vs-new), plus the differential oracle — both paths re-run with
     media digests enabled and every verdict, digest included, must be
     bit-identical.
   - with [--full] (implies --journal): a stride-1 journal sweep over
     {e every} enumerated boundary of every kind. This is the claim-3
     statement the sampled experiments cannot make: zero contract breaks
     at all of the tens of thousands of crash points.

   Parallel sweeps must be bit-identical to serial — the fan-out is
   measurement machinery, not a source of nondeterminism. The identity
   is always asserted; the parallel-vs-serial {e timing} is skipped (and
   reported as null with a reason) on a single-core host, where the
   ratio would only measure domain overhead.

   Writes a JSON report (default BENCH_PR3_SWEEP.json). With --check it
   self-validates so `dune runtest` keeps the harness honest.

   Usage: crash_surface.exe [--quick] [--check] [--journal] [--full]
                            [--jobs N] [--output PATH] *)

open Desim
open Harness
open Harness.Json

let base_scenario ~quick =
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
    seed = 20_2608L;
    warmup = Time.ms 1;
    duration = (if quick then Time.ms 10 else Time.ms 50);
  }

let surface_config ~quick scenario =
  let default = Crash_surface.default scenario in
  if quick then
    {
      default with
      Crash_surface.window_start = Time.ms 2;
      window_length = Time.ms 6;
      (* Tight but sound: the budget must still cover the worst-case
         post-cut drain — an in-flight write, a seek settle, a full
         rotation (~8.3 ms at 7200 rpm) and the buffer transfer. A
         budget below that violates the logger's admission precondition
         and the sweep would rightly report losses. *)
      tight_window = Time.ms 20;
      tight_buffer_bytes = 64 * 1024;
    }
  else default

(* One enumeration replay per kind tells us how many boundaries the
   window holds; the stride is then chosen so the sweep explores about
   [target] points in total. Stride 1 (every boundary) is kept whenever
   the surface is small enough. *)
let autostride config ~target =
  let total =
    List.fold_left
      (fun acc kind ->
        acc + (Crash_surface.enumerate config kind).Crash_surface.e_boundaries)
      0 config.Crash_surface.kinds
  in
  (total, max 1 (total / target))

let kind_summary_json (k : Crash_surface.kind_summary) =
  Obj
    [
      ("kind", Str (Crash_surface.kind_name k.Crash_surface.k_kind));
      ("boundaries", Num (float_of_int k.Crash_surface.k_boundaries));
      ("explored", Num (float_of_int k.Crash_surface.k_explored));
      ("contract_breaks", Num (float_of_int k.Crash_surface.k_contract_breaks));
      ("lost", Num (float_of_int k.Crash_surface.k_lost));
    ]

let break_json (v : Crash_surface.verdict) =
  Obj
    [
      ("kind", Str (Crash_surface.kind_name v.Crash_surface.v_kind));
      ("event_index", Num (float_of_int v.Crash_surface.v_event_index));
      ("at_ns", Num (float_of_int v.Crash_surface.v_at_ns));
      ("acked", Num (float_of_int v.Crash_surface.v_acked));
      ("lost", Num (float_of_int v.Crash_surface.v_lost));
      ("extra", Num (float_of_int v.Crash_surface.v_extra));
      ("state_exact", Bool v.Crash_surface.v_state_exact);
      ("diff_count", Num (float_of_int v.Crash_surface.v_diff_count));
      ( "invariant_violations",
        Num (float_of_int v.Crash_surface.v_invariant_violations) );
      ("buffered_at_cut", Num (float_of_int v.Crash_surface.v_buffered_at_cut));
    ]

(* Breaking points are listed individually (capped) so a red protected
   sweep pinpoints the boundary to replay, and the baseline report shows
   what the teeth bit. *)
let max_breaks_listed = 20

let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let sweep_json (r : Crash_surface.result) =
  let breaks =
    List.filter
      (fun v -> not v.Crash_surface.v_contract_ok)
      r.Crash_surface.r_verdicts
  in
  Obj
    [
      ("mode", Str (Scenario.mode_name r.Crash_surface.r_mode));
      ("stride", Num (float_of_int r.Crash_surface.r_stride));
      ("kinds", Arr (List.map kind_summary_json r.Crash_surface.r_kinds));
      ("total_boundaries", Num (float_of_int r.Crash_surface.r_total_boundaries));
      ("explored", Num (float_of_int r.Crash_surface.r_explored));
      ("contract_breaks", Num (float_of_int r.Crash_surface.r_contract_breaks));
      ("lost_total", Num (float_of_int r.Crash_surface.r_lost_total));
      ("breaks", Arr (List.map break_json (take max_breaks_listed breaks)));
    ]

let usage () =
  print_endline
    "usage: crash_surface.exe [--quick] [--check] [--journal] [--full] \
     [--jobs N] [--output PATH]";
  exit 2

let () =
  let quick = ref false in
  let check = ref false in
  let journal = ref false in
  let full = ref false in
  let jobs = ref (Parallel.default_jobs ()) in
  let output = ref "BENCH_PR3_SWEEP.json" in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest -> quick := true; parse rest
    | "--check" :: rest -> check := true; parse rest
    | "--journal" :: rest -> journal := true; parse rest
    | "--full" :: rest -> full := true; journal := true; parse rest
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n >= 1 -> jobs := n
        | _ -> usage ());
        parse rest
    | "--output" :: path :: rest -> output := path; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let quick = !quick and jobs = !jobs in
  let journal = !journal and full = !full in
  let cores = Domain.recommended_domain_count () in
  let target = if quick then 24 else 600 in
  let min_explored = if quick then 12 else 500 in
  let failures = ref [] in
  let fail msg = failures := msg :: !failures in

  (* -- protected sweep: RapiLog, every crash kind, full replay --------- *)
  let protected_scenario =
    { (base_scenario ~quick) with Scenario.mode = Scenario.Rapilog }
  in
  let protected_config = surface_config ~quick protected_scenario in
  let boundaries, stride = autostride protected_config ~target in
  let protected_config = { protected_config with Crash_surface.stride } in
  Printf.printf
    "crash-surface: rapilog surface has %d boundaries, stride %d...\n%!"
    boundaries stride;
  let t0 = Unix.gettimeofday () in
  let serial = Crash_surface.sweep ~jobs:1 protected_config in
  let serial_s = Unix.gettimeofday () -. t0 in
  (* Parallel-vs-serial is a real measurement only with real cores; on a
     single-core host it would time domain overhead, so the timing is
     skipped and the identity asserted with the serial result reused. *)
  let parallel, parallel_timing =
    if cores > 1 then begin
      let t1 = Unix.gettimeofday () in
      let parallel = Crash_surface.sweep ~jobs protected_config in
      let parallel_s = Unix.gettimeofday () -. t1 in
      (parallel, Some parallel_s)
    end
    else (Crash_surface.sweep ~jobs:4 protected_config, None)
  in
  let identical =
    serial.Crash_surface.r_verdicts = parallel.Crash_surface.r_verdicts
  in
  let speedup_json, speedup_note =
    match parallel_timing with
    | Some parallel_s ->
        let speedup = serial_s /. parallel_s in
        ( [ ("parallel_seconds", Num parallel_s); ("speedup", Num speedup) ],
          Printf.sprintf "jobs=%d %.2fs (%.2fx)" jobs parallel_s speedup )
    | None ->
        ( [
            ("parallel_seconds", Null);
            ("speedup", Null);
            ( "skipped_reason",
              Str "single-core host: parallel timing would measure domain \
                   overhead, not speedup" );
          ],
          "parallel timing skipped (1 core)" )
  in
  Printf.printf
    "crash-surface: rapilog %d points: %d contract breaks | replay serial \
     %.2fs, %s, bit-identical: %b\n%!"
    parallel.Crash_surface.r_explored parallel.Crash_surface.r_contract_breaks
    serial_s speedup_note identical;

  (* -- journal sweep: same candidates, one recorded run per kind ------- *)
  let journal_section =
    if not journal then []
    else begin
      let tj0 = Unix.gettimeofday () in
      let journal_serial = Crash_surface.sweep_journal ~jobs:1 protected_config in
      let journal_s = Unix.gettimeofday () -. tj0 in
      let journal_parallel = Crash_surface.sweep_journal ~jobs:4 protected_config in
      let journal_identical =
        journal_serial.Crash_surface.r_verdicts
        = journal_parallel.Crash_surface.r_verdicts
      in
      let replay_vs_journal = serial_s /. journal_s in
      Printf.printf
        "crash-surface: journal sweep %d points in %.2fs — %.1fx over full \
         replay (%.2fs); parallel bit-identical: %b\n%!"
        journal_serial.Crash_surface.r_explored journal_s replay_vs_journal
        serial_s journal_identical;
      (* Differential oracle: both paths re-run with media digests on.
         Every strided point is oracle-checked — the verdict lists,
         including a CRC of the entire post-crash durable media, must be
         bit-identical. *)
      let oracle_config =
        { protected_config with Crash_surface.media_digests = true }
      in
      let oracle_replay = Crash_surface.sweep ~jobs:1 oracle_config in
      let oracle_journal = Crash_surface.sweep_journal ~jobs:1 oracle_config in
      let oracle_identical =
        oracle_replay.Crash_surface.r_verdicts
        = oracle_journal.Crash_surface.r_verdicts
      in
      let oracle_points = oracle_replay.Crash_surface.r_explored in
      let oracle_min_per_kind =
        List.fold_left
          (fun acc k -> min acc k.Crash_surface.k_explored)
          max_int oracle_replay.Crash_surface.r_kinds
      in
      Printf.printf
        "crash-surface: oracle: %d points (min %d per kind), digests \
         bit-identical: %b\n%!"
        oracle_points oracle_min_per_kind oracle_identical;
      if journal_serial.Crash_surface.r_contract_breaks <> 0 then
        fail "journal sweep found contract breaks (want 0)";
      if not journal_identical then
        fail "journal parallel verdicts differ from serial";
      if not oracle_identical then
        fail "journal reconstruction differs from full replay under digests";
      if (not quick) && oracle_min_per_kind < 50 then
        fail
          (Printf.sprintf "oracle covered only %d points on some kind (want \
                           >= 50)" oracle_min_per_kind);
      [
        ( "journal",
          Obj
            [
              ("sweep", sweep_json journal_serial);
              ("seconds", Num journal_s);
              ("replay_serial_seconds", Num serial_s);
              ("replay_vs_journal_speedup", Num replay_vs_journal);
              ("parallel_bit_identical", Bool journal_identical);
              ( "oracle",
                Obj
                  [
                    ("points", Num (float_of_int oracle_points));
                    ("min_per_kind", Num (float_of_int oracle_min_per_kind));
                    ("media_digests", Bool true);
                    ("bit_identical", Bool oracle_identical);
                  ] );
            ] );
      ]
    end
  in

  (* -- full surface: every boundary of every kind, journal path -------- *)
  let full_section =
    if not full then []
    else begin
      let full_config = { protected_config with Crash_surface.stride = 1 } in
      let tf0 = Unix.gettimeofday () in
      let exhaustive = Crash_surface.sweep_journal ~jobs full_config in
      let full_s = Unix.gettimeofday () -. tf0 in
      Printf.printf
        "crash-surface: FULL surface: %d/%d boundaries, %d kinds, %d contract \
         breaks, %d lost (%.2fs)\n%!"
        exhaustive.Crash_surface.r_explored
        exhaustive.Crash_surface.r_total_boundaries
        (List.length exhaustive.Crash_surface.r_kinds)
        exhaustive.Crash_surface.r_contract_breaks
        exhaustive.Crash_surface.r_lost_total full_s;
      if exhaustive.Crash_surface.r_contract_breaks <> 0 then
        fail "FULL sweep found contract breaks (want 0 at every boundary)";
      if exhaustive.Crash_surface.r_lost_total <> 0 then
        fail "FULL sweep lost acked commits (want 0 at every boundary)";
      if
        exhaustive.Crash_surface.r_explored
        <> exhaustive.Crash_surface.r_total_boundaries
      then
        fail
          (Printf.sprintf "FULL sweep explored %d of %d boundaries"
             exhaustive.Crash_surface.r_explored
             exhaustive.Crash_surface.r_total_boundaries);
      [ ("full", Obj [ ("sweep", sweep_json exhaustive); ("seconds", Num full_s) ]) ]
    end
  in

  (* -- baseline teeth: unprotected write cache under a power cut ------- *)
  let baseline_scenario =
    { (base_scenario ~quick) with Scenario.mode = Scenario.Unsafe_wcache }
  in
  let baseline_config =
    {
      (surface_config ~quick baseline_scenario) with
      Crash_surface.kinds = [ Crash_surface.Power_cut ];
    }
  in
  let baseline_boundaries, baseline_stride =
    autostride baseline_config ~target:(target / 3)
  in
  let baseline_config =
    { baseline_config with Crash_surface.stride = baseline_stride }
  in
  Printf.printf
    "crash-surface: unsafe-wcache surface has %d boundaries, stride %d...\n%!"
    baseline_boundaries baseline_stride;
  let t2 = Unix.gettimeofday () in
  let baseline = Crash_surface.sweep ~jobs baseline_config in
  let baseline_s = Unix.gettimeofday () -. t2 in
  Printf.printf
    "crash-surface: unsafe-wcache %d points: %d contract breaks, %d acked \
     commits lost (%.2fs)\n%!"
    baseline.Crash_surface.r_explored baseline.Crash_surface.r_contract_breaks
    baseline.Crash_surface.r_lost_total baseline_s;

  let report =
    Obj
      ([
         ("pr", Num 3.);
         ("harness", Str "crash_surface.exe");
         ("quick", Bool quick);
         ("full", Bool full);
         ("cores", Num (float_of_int cores));
         ("jobs", Num (float_of_int jobs));
         ( "window",
           Obj
             [
               ( "start_after_load_ns",
                 Num
                   (float_of_int
                      (Time.span_to_ns protected_config.Crash_surface.window_start))
               );
               ( "length_ns",
                 Num
                   (float_of_int
                      (Time.span_to_ns protected_config.Crash_surface.window_length))
               );
               ( "tight_window_ns",
                 Num
                   (float_of_int
                      (Time.span_to_ns protected_config.Crash_surface.tight_window))
               );
               ( "tight_buffer_bytes",
                 Num
                   (float_of_int protected_config.Crash_surface.tight_buffer_bytes)
               );
             ] );
         ( "protected",
           Obj
             ([
                ("sweep", sweep_json parallel);
                ("serial_seconds", Num serial_s);
              ]
             @ speedup_json
             @ [ ("bit_identical", Bool identical) ]) );
       ]
      @ journal_section @ full_section
      @ [
          ( "baseline",
            Obj [ ("sweep", sweep_json baseline); ("seconds", Num baseline_s) ] );
        ])
  in
  let text = Json.to_string report in
  let oc = open_out !output in
  output_string oc text;
  close_out oc;
  Printf.printf "crash-surface: wrote %s\n%!" !output;

  if !check then begin
    (match Json.of_string text with
    | exception Json.Parse_error msg ->
        fail (Printf.sprintf "report is not valid JSON: %s" msg)
    | Obj _ -> ()
    | _ -> fail "report is not a JSON object");
    if parallel.Crash_surface.r_contract_breaks <> 0 then
      fail
        (Printf.sprintf "rapilog sweep found %d contract breaks (want 0)"
           parallel.Crash_surface.r_contract_breaks);
    if baseline.Crash_surface.r_contract_breaks < 1 then
      fail "unsafe-wcache sweep found no contract break (teeth are missing)";
    if baseline.Crash_surface.r_lost_total < 1 then
      fail "unsafe-wcache sweep lost no acked commit (teeth are missing)";
    if not identical then fail "parallel sweep verdicts differ from serial";
    if parallel.Crash_surface.r_explored < min_explored then
      fail
        (Printf.sprintf "explored only %d crash points (want >= %d)"
           parallel.Crash_surface.r_explored min_explored);
    if List.length parallel.Crash_surface.r_kinds < 2 then
      fail "fewer than two crash kinds explored";
    match !failures with
    | [] -> print_endline "crash-surface: check OK"
    | msgs ->
        List.iter
          (fun m -> Printf.eprintf "crash-surface: CHECK FAILED: %s\n" m)
          msgs;
        exit 1
  end
  else
    match !failures with
    | [] -> ()
    | msgs ->
        List.iter (fun m -> Printf.eprintf "crash-surface: FAILED: %s\n" m) msgs;
        exit 1
