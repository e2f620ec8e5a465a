(* The machine-readable performance harness: the trajectory gate that
   later PRs must not regress.

   Measures, with fixed seeds:
   - the desim core: event-queue add/pop throughput and the Sim.step
     hot path's allocation rate (Gc.minor_words per event — the
     acceptance bar is zero);
   - the PR 8 engine refactor head-to-head: the timer-wheel event
     queue against the binary heap it replaced, both driven by one
     deterministic mixed-horizon op stream — the wheel must match the
     heap's pop order exactly (fingerprint) and allocate nothing; that
     it is no slower is a wall-clock claim, gated by --speedup;
   - the commit-path hot paths this PR fights over: the NVMe submission
     arithmetic (service time + zone accounting), the WAL stream append
     (one record encoded straight into a warm stream buffer), and the
     adaptive group-commit decision — all gated allocation-free;
   - the commit-path grid: throughput and p50/p99 commit latency across
     device (hdd/ssd/nvme) × WAL stream count × commit policy × client
     count, with the adaptive policy required to beat fixed batching on
     p99 at every nvme cell;
   - the journal crash sweep over the new configurations: a
     multi-stream rapilog config and an nvme rapilog config must report
     zero contract breaks and zero acknowledged commits lost at every
     explored boundary;
   - the experiment sweep: wall-clock for a fixed scenario grid
     (including nvme, multi-stream and adaptive-policy cells) at jobs=1
     and jobs=N, asserting the parallel results are bit-identical to
     serial;
   - the observability layer: the same scenarios with and without the
     metrics registry installed, asserting the steady results are
     bit-identical (instrumentation only reads the clock) and emitting
     the per-stage commit-latency histograms as the "metrics" section.

   Writes a JSON report (default BENCH_PR8.json). With --check it also
   self-validates — the gates above plus JSON well-formedness — so
   `dune runtest` keeps this harness honest. The two wall-clock ratios —
   the sweep's parallel speedup and the wheel's rate over the heap's —
   are reported there but gated only by --speedup, which times
   alternating pairs of each and nothing else; the bench/dune alias
   [speedup] runs it apart from the test suite.

   Usage: perf.exe [--quick] [--check] [--jobs N] [--output PATH]
          perf.exe [--quick] [--jobs N] --speedup *)

open Desim
open Harness
open Harness.Json

(* ---- desim microbenchmarks ----------------------------------------- *)

(* Raw queue churn: keep a standing population and cycle add+pop. *)
let bench_event_queue ~events =
  let q = Event_queue.create () in
  for i = 0 to 1023 do
    Event_queue.add q ~time:(Time.of_ns i) i
  done;
  (* warm the arrays past any growth before measuring *)
  Gc.minor ();
  let words0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for i = 0 to events - 1 do
    Event_queue.add q ~time:(Time.of_ns (1024 + i)) i;
    ignore (Event_queue.pop_min q)
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. words0 in
  ( float_of_int events /. elapsed,
    words /. float_of_int events,
    elapsed )

(* ---- heap vs wheel head-to-head (PR 8) ------------------------------ *)

(* Both queue backends driven by one deterministic op stream. The
   stream is monotone — every add lands at or after the last popped
   instant, the timer wheel's contract, which {!Sim.schedule_at}
   guarantees in production — and its deltas mix every horizon the
   wheel distinguishes: same-instant bursts (slot FIFO), each of the
   four wheel levels (cascade depth 0-3), and far-future times past
   the wheel span (the overflow heap). The popped (time, payload)
   stream folds into a fingerprint; the two backends must produce the
   same one, or the wheel broke the (time, seq) order. *)

module type QUEUE = sig
  type 'a t

  val create : unit -> 'a t
  val add : 'a t -> time:Time.t -> 'a -> unit
  val min_time : 'a t -> Time.t
  val pop_min : 'a t -> 'a
end

let mix_lcg s = ((s * 2685821657736338717) + 1442695040888963407) land max_int

(* Horizon mix, driven off the upper LCG bits: 30% same-instant, 25%
   level 0, 20% level 1, 15% level 2, 8% level 3, 2% overflow. *)
let mix_delta s =
  let r = (s lsr 33) mod 100 in
  let v = s lsr 13 in
  if r < 30 then 0
  else if r < 55 then 1 + (v mod 0xFF)
  else if r < 75 then 0x100 + (v mod 0xFF00)
  else if r < 90 then 0x1_0000 + (v mod 0xFF_0000)
  else if r < 98 then 0x100_0000 + (v mod 0xFF00_0000)
  else Timer_wheel.wheel_span * (1 + (v mod 4))

module Queue_mix (Q : QUEUE) = struct
  (* Standing population of 4096, then [events] monotone add+pop pairs
     on the mixed-horizon stream. Returns (pairs/s, minor words per
     pair, order fingerprint). *)
  let run ~events =
    let q = Q.create () in
    let state = ref 0x9E3779B9 in
    let low = ref 0 in
    let fp = ref 0 in
    for i = 0 to 4095 do
      state := mix_lcg !state;
      Q.add q ~time:(Time.of_ns (mix_delta !state)) i
    done;
    Gc.minor ();
    let words0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    for i = 0 to events - 1 do
      state := mix_lcg !state;
      Q.add q ~time:(Time.of_ns (!low + mix_delta !state)) i;
      let t = Time.to_ns (Q.min_time q) in
      let v = Q.pop_min q in
      low := t;
      fp := mix_lcg (!fp lxor t lxor (v * 0x1000003))
    done;
    let elapsed = Unix.gettimeofday () -. t0 in
    let words = Gc.minor_words () -. words0 in
    (float_of_int events /. elapsed, words /. float_of_int events, !fp)
end

module Wheel_mix = Queue_mix (Event_queue)
module Heap_mix = Queue_mix (Binary_heap)

(* Throughput comparisons on a shared machine take the best of [n]
   runs — the minimum-noise estimate of each backend's capability. The
   allocation figure and fingerprint come from the last run (they are
   deterministic across runs). *)
let best_of n f =
  let rate = ref 0. and words = ref 0. and fp = ref 0 in
  for _ = 1 to n do
    let r, w, p = f () in
    if r > !rate then rate := r;
    words := w;
    fp := p
  done;
  (!rate, !words, !fp)

let bench_wheel_vs_heap ~quick ~events =
  let n = if quick then 2 else 3 in
  let wheel = best_of n (fun () -> Wheel_mix.run ~events) in
  let heap = best_of n (fun () -> Heap_mix.run ~events) in
  (wheel, heap)

(* The Sim.step hot path: one self-rescheduling closure, so every
   simulated event exercises schedule_after + step + pop with no
   per-event closure construction. The minor-words delta across the run
   is the per-event allocation of the engine itself. *)
let bench_sim_step ~events =
  let sim = Sim.create ~seed:7L () in
  let remaining = ref events in
  let rec tick () =
    if !remaining > 0 then begin
      decr remaining;
      Sim.schedule_after sim (Time.ns 100) tick
    end
  in
  Sim.schedule_now sim tick;
  (* run the first few events, then measure the steady state *)
  for _ = 1 to 8 do
    ignore (Sim.step sim)
  done;
  Gc.minor ();
  let words0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  Sim.run sim;
  let elapsed = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. words0 in
  let measured = float_of_int (events - 8) in
  (measured /. elapsed, words /. measured, elapsed)

(* The Link hot path: a preallocated self-rescheduling sender, constant
   latency (no rng), zero drop probability (no rng), int payloads in the
   flat ring, the preallocated pump delivering each message. The
   minor-words delta per message is the link's own allocation. *)
let bench_net_link ~events =
  let sim = Sim.create ~seed:9L () in
  let delivered = ref 0 in
  let config =
    {
      Net.Link.latency = Net.Link.Constant (Time.ns 100);
      bandwidth = 0.;
      drop_probability = 0.;
    }
  in
  let link =
    Net.Link.create sim config ~dummy:0 ~deliver:(fun _ -> incr delivered)
  in
  let remaining = ref events in
  let rec tick () =
    if !remaining > 0 then begin
      decr remaining;
      Net.Link.send link 1;
      Sim.schedule_after sim (Time.ns 100) tick
    end
  in
  Sim.schedule_now sim tick;
  (* run the first events to warm the ring past any growth, then measure *)
  for _ = 1 to 64 do
    ignore (Sim.step sim)
  done;
  Gc.minor ();
  let words0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  Sim.run sim;
  let elapsed = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. words0 in
  let measured = float_of_int (events - 33) in
  (measured /. elapsed, words /. measured, elapsed)

(* ---- commit-path microbenchmarks ----------------------------------- *)

(* The NVMe submission hot path: the pure service-time arithmetic every
   request performs plus the per-write zone accounting. Both run on the
   live request path at queue-depth concurrency, so they must not
   allocate. *)
let bench_nvme_submit ~events =
  let config = Storage.Nvme.default in
  let zones = Storage.Nvme.Zones.create config in
  let span = config.Storage.Nvme.capacity_sectors - 16 in
  let sink = ref 0 in
  Gc.minor ();
  let words0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for i = 0 to events - 1 do
    sink := !sink + Storage.Nvme.service_ns config ~sectors:16;
    Storage.Nvme.Zones.note_write zones ~lba:(i * 16 mod span) ~sectors:16
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. words0 in
  ignore (Sys.opaque_identity !sink);
  (float_of_int events /. elapsed, words /. float_of_int events, elapsed)

(* The WAL stream-append hot path: one update record encoded straight
   into a warm stream buffer (the incremental-CRC single-pass encoder —
   no intermediate record buffer). The buffer is recycled the way
   truncation recycles a live stream's, so growth never charges the
   measurement. *)
let bench_log_append ~events =
  let buf = Buffer.create (1 lsl 20) in
  let record =
    Dbms.Log_record.Update
      { txid = 7; key = 42; before = String.make 16 'b'; after = String.make 16 'a' }
  in
  let limit = 1 lsl 19 in
  while Buffer.length buf < limit do
    Dbms.Log_record.encode_into record buf
  done;
  Buffer.clear buf;
  Gc.minor ();
  let words0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to events do
    if Buffer.length buf > limit then Buffer.clear buf;
    Dbms.Log_record.encode_into record buf
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. words0 in
  (float_of_int events /. elapsed, words /. float_of_int events, elapsed)

(* The adaptive group-commit decision: pure integer arithmetic a
   committer runs between a clock read and a sleep, plus the EWMA
   update the WAL folds in after every device write. *)
let bench_commit_policy ~events =
  let policy = Dbms.Commit_policy.Adaptive { target_ns = 100_000; max_batch = 16 } in
  let ewma = ref 0 in
  let sink = ref 0 in
  Gc.minor ();
  let words0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for i = 0 to events - 1 do
    ewma := Dbms.Commit_policy.ewma_update ~prev:!ewma ~obs:(8_000_000 - (i land 0xFFFFF));
    sink :=
      !sink
      + Dbms.Commit_policy.decide policy ~ewma_ns:!ewma ~pending:(i land 7)
          ~waited_ns:(i land 0x3FFFF)
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. words0 in
  ignore (Sys.opaque_identity !sink);
  (float_of_int events /. elapsed, words /. float_of_int events, elapsed)

(* Bounded integer draws, the workload generators' unit of randomness
   (one per value byte in Value_gen): gated allocation-free. The bounds
   cycle through small, byte-sized and above-2^61 ones, the last taking
   the rejection loop about half the time. *)
let bench_rng_int ~events =
  let rng = Rng.create 42L in
  let bounds = [| 7; 256; 10_000; (1 lsl 61) + 1 |] in
  let sink = ref 0 in
  Gc.minor ();
  let words0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for i = 0 to events - 1 do
    sink := !sink lxor Rng.int rng (Array.unsafe_get bounds (i land 3))
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. words0 in
  ignore (Sys.opaque_identity !sink);
  (float_of_int events /. elapsed, words /. float_of_int events, elapsed)

(* Zipf key draws, YCSB's unit of randomness (one per operation): gated
   allocation-free, over a 100k-key space at the YCSB skew. *)
let bench_rng_zipf ~events =
  let rng = Rng.create 42L in
  let dist = Rng.Zipf.create ~n:100_000 ~theta:0.99 in
  let sink = ref 0 in
  Gc.minor ();
  let words0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to events do
    sink := !sink + Rng.Zipf.sample rng dist
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. words0 in
  ignore (Sys.opaque_identity !sink);
  (float_of_int events /. elapsed, words /. float_of_int events, elapsed)

(* ---- shared PR6 axis ------------------------------------------------ *)

let nvme_device = Scenario.Nvme Storage.Nvme.default

let adaptive_policy =
  Dbms.Commit_policy.Adaptive { target_ns = 100_000; max_batch = 16 }

let with_policy config policy =
  {
    config with
    Scenario.profile =
      Dbms.Engine_profile.with_commit_policy config.Scenario.profile policy;
  }

(* ---- sweep wall-clock at jobs=1 vs jobs=N -------------------------- *)

(* The rapilog-replicated preset (RapiLog-R): the quorum cluster with one
   replica, committing on its ack. *)
let replicated (config : Scenario.config) =
  {
    config with
    Scenario.mode = Scenario.Rapilog_quorum;
    quorum = { config.Scenario.quorum with Net.Quorum.replicas = 1; quorum = 1 };
  }

let sweep_grid ~quick =
  let config =
    {
      Scenario.default with
      Scenario.warmup = Time.ms 100;
      duration = (if quick then Time.ms 300 else Time.ms 800);
      seed = 4242L;
    }
  in
  let clients = if quick then [ 1; 4 ] else [ 1; 4; 16 ] in
  let with_mode mode c = { c with Scenario.mode } in
  let cells =
    if quick then
      [
        with_mode Scenario.Native_sync; with_mode Scenario.Rapilog; replicated;
        with_mode Scenario.Rapilog_sharded;
      ]
    else List.map with_mode Scenario.all_modes @ [ replicated ]
  in
  let classic =
    List.concat_map
      (fun n -> List.map (fun cell -> cell { config with Scenario.clients = n }) cells)
      clients
  in
  (* One representative per new axis, so the parallel-identity gate
     covers the nvme device, multi-stream WAL and adaptive policy. *)
  let axis =
    [
      { config with Scenario.mode = Scenario.Rapilog; device = nvme_device; clients = 4 };
      with_policy
        { config with Scenario.mode = Scenario.Native_sync; device = nvme_device; clients = 4 }
        adaptive_policy;
      { config with Scenario.mode = Scenario.Rapilog; log_streams = 2; clients = 4 };
      {
        config with
        Scenario.mode = Scenario.Rapilog;
        device = nvme_device;
        log_streams = 2;
        clients = 4;
      };
    ]
  in
  classic @ axis

let steady_fingerprint (r : Experiment.steady_result) =
  (* Every scalar the sweep reports; identical records ⇒ identical runs. *)
  Obj
    [
      ("mode", Str (Scenario.mode_name r.Experiment.mode));
      ("clients", Num (float_of_int r.Experiment.clients));
      ("committed", Num (float_of_int r.Experiment.committed_in_window));
      ("throughput", Num r.Experiment.throughput);
      ("p50_us", Num r.Experiment.latency_p50_us);
      ("p99_us", Num r.Experiment.latency_p99_us);
      ("log_writes", Num (float_of_int r.Experiment.physical_log_writes));
      ("wal_forces", Num (float_of_int r.Experiment.wal_forces));
    ]

let bench_sweep ~quick ~jobs ~cores =
  let grid = sweep_grid ~quick in
  let t0 = Unix.gettimeofday () in
  let serial = Experiment.run_steady_batch ~jobs:1 grid in
  let serial_s = Unix.gettimeofday () -. t0 in
  (* Parallel-vs-serial is a real measurement only with real cores; on a
     single-core host it would time domain overhead, so the timing is
     skipped and the identity asserted with the serial result reused. *)
  let parallel, parallel_timing =
    if cores > 1 then begin
      let t1 = Unix.gettimeofday () in
      let parallel = Experiment.run_steady_batch ~jobs grid in
      let parallel_s = Unix.gettimeofday () -. t1 in
      (parallel, Some parallel_s)
    end
    else (Experiment.run_steady_batch ~jobs:4 grid, None)
  in
  let identical = serial = parallel in
  (List.length grid, serial, serial_s, parallel_timing, identical)

let median_of xs =
  let sorted = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length sorted in
  (sorted.((n - 1) / 2) +. sorted.(n / 2)) /. 2.

let speedup_pairs = 5

(* The wheel must be no slower than the heap it replaced: five
   alternating wheel/heap runs of the standard mix, judged on the
   median per-pair rate ratio. *)
let wheel_rate_failures ~quick =
  let events = if quick then 200_000 else 2_000_000 in
  let ratios =
    List.init speedup_pairs (fun i ->
        let wheel_rate, _, _ = Wheel_mix.run ~events in
        let heap_rate, _, _ = Heap_mix.run ~events in
        Printf.printf
          "perf: wheel pair %d: wheel %.2fM ev/s, heap %.2fM ev/s (%.2fx)\n%!"
          (i + 1) (wheel_rate /. 1e6) (heap_rate /. 1e6) (wheel_rate /. heap_rate);
        wheel_rate /. heap_rate)
  in
  let median = median_of ratios in
  Printf.printf "perf: median wheel/heap rate %.2fx over %d pairs\n" median
    speedup_pairs;
  if median < 1. then
    [ Printf.sprintf "wheel median rate %.2fx the heap's on the standard mix" median ]
  else []

(* The multicore claim: five alternating serial/parallel runs of the
   sweep grid, judged on the median per-pair speedup, so one run slowed
   by a neighbour on a shared host cannot decide it. *)
let parallel_speedup_failures ~quick ~jobs =
  let cores = Domain.recommended_domain_count () in
  let grid = sweep_grid ~quick in
  let timed jobs =
    let t0 = Unix.gettimeofday () in
    let results = Experiment.run_steady_batch ~jobs grid in
    (results, Unix.gettimeofday () -. t0)
  in
  let speedups =
    List.init speedup_pairs (fun i ->
        let serial, serial_s = timed 1 in
        let parallel, parallel_s = timed jobs in
        if serial <> parallel then begin
          prerr_endline "perf: CHECK FAILED: parallel sweep results differ from serial";
          exit 1
        end;
        let speedup = serial_s /. parallel_s in
        Printf.printf "perf: pair %d: serial %.2fs, jobs=%d %.2fs (%.2fx)\n%!"
          (i + 1) serial_s jobs parallel_s speedup;
        speedup)
  in
  let median = median_of speedups in
  Printf.printf "perf: median speedup %.2fx over %d pairs on %d cores\n" median
    speedup_pairs cores;
  (if median <= 1. then
     [ Printf.sprintf "parallel speedup %.2fx <= 1x on %d cores" median cores ]
   else [])
  @
  if cores >= 4 && jobs >= 4 && median < 2. then
    [ Printf.sprintf "parallel speedup %.2fx < 2x on >=4 cores" median ]
  else []

(* The wall-clock gates, measured apart from everything else. They run
   under their own dune alias, never beside the test suite, whose rules
   would compete for the same cores. *)
let speedup_gate ~quick ~jobs =
  let wheel = wheel_rate_failures ~quick in
  let cores = Domain.recommended_domain_count () in
  let parallel =
    if cores < 2 || jobs < 2 then begin
      Printf.printf
        "perf: parallel speedup skipped (%d cores, jobs=%d): a parallel \
         timing needs two of each\n"
        cores jobs;
      []
    end
    else parallel_speedup_failures ~quick ~jobs
  in
  match wheel @ parallel with
  | [] -> print_endline "perf: speedup check OK"
  | msgs ->
      List.iter (fun m -> Printf.eprintf "perf: CHECK FAILED: %s\n" m) msgs;
      exit 1

(* ---- the commit-path grid ------------------------------------------ *)

(* The headline table of this PR: throughput and p50/p99 commit latency
   across device × WAL stream count × commit policy × client count, in
   native-sync mode so the device's write latency sits on the commit
   path and the policies have something to fight over. Run twice
   (serial, then the worker pool) so the new configurations are covered
   by the parallel-identity gate too. *)
type commit_cell = {
  cc_device : string;
  cc_streams : int;
  cc_policy : Dbms.Commit_policy.t;
  cc_clients : int;
}

let commit_path_cells ~quick =
  let devices =
    if quick then
      [ ("hdd", Scenario.Disk Storage.Hdd.default_7200rpm); ("nvme", nvme_device) ]
    else
      [
        ("hdd", Scenario.Disk Storage.Hdd.default_7200rpm);
        ("ssd", Scenario.Flash Storage.Ssd.default);
        ("nvme", nvme_device);
      ]
  in
  let streams = if quick then [ 1; 2 ] else [ 1; 2; 4 ] in
  let clients = if quick then [ 16 ] else [ 8; 32 ] in
  let policies =
    [ Dbms.Commit_policy.Fixed 1; Dbms.Commit_policy.Fixed 8; adaptive_policy ]
  in
  List.concat_map
    (fun (cc_device, _) ->
      List.concat_map
        (fun cc_streams ->
          List.concat_map
            (fun cc_clients ->
              List.map
                (fun cc_policy -> { cc_device; cc_streams; cc_policy; cc_clients })
                policies)
            clients)
        streams)
    devices
  |> fun cells ->
  let device_of name = List.assoc name devices in
  let config cell =
    with_policy
      {
        Scenario.default with
        Scenario.mode = Scenario.Native_sync;
        device = device_of cell.cc_device;
        log_streams = cell.cc_streams;
        clients = cell.cc_clients;
        warmup = Time.ms 100;
        duration = (if quick then Time.ms 300 else Time.ms 800);
        seed = 4242L;
      }
      cell.cc_policy
  in
  (cells, List.map config cells)

let bench_commit_path ~quick ~jobs =
  let cells, configs = commit_path_cells ~quick in
  let serial = Experiment.run_steady_batch ~jobs:1 configs in
  let parallel = Experiment.run_steady_batch ~jobs configs in
  let identical = serial = parallel in
  (List.combine cells serial, identical)

(* The gate: at every nvme cell, the adaptive policy's p99 must be no
   worse than fixed batching's (same device, streams and clients). On a
   device already at µs latency, holding commits to gather a batch
   cannot pay for itself — the adaptive policy is supposed to know
   that. *)
let commit_path_gate rows ~fail =
  List.iter
    (fun (cell, r) ->
      match cell.cc_policy with
      | Dbms.Commit_policy.Fixed n when n > 1 && cell.cc_device = "nvme" ->
          let adaptive =
            List.find_opt
              (fun (c, _) ->
                c.cc_device = cell.cc_device
                && c.cc_streams = cell.cc_streams
                && c.cc_clients = cell.cc_clients
                && c.cc_policy = adaptive_policy)
              rows
          in
          (match adaptive with
          | None -> fail "commit-path grid has no adaptive row for an nvme cell"
          | Some (_, a) ->
              if a.Experiment.latency_p99_us > r.Experiment.latency_p99_us then
                fail
                  (Printf.sprintf
                     "nvme s=%d c=%d: adaptive p99 %.0fus worse than %s p99 \
                      %.0fus"
                     cell.cc_streams cell.cc_clients a.Experiment.latency_p99_us
                     (Dbms.Commit_policy.to_string cell.cc_policy)
                     r.Experiment.latency_p99_us))
      | _ -> ())
    rows

(* ---- journal crash sweep over the new configurations ---------------- *)

(* The verification half of the latency war: the journal-reconstruction
   sweep over a multi-stream rapilog config and an nvme rapilog config.
   Every explored boundary must keep the always-durable contract — no
   acknowledged commit lost, recovered state exact — or the new commit
   path bought its latency with correctness. *)
let journal_cells ~quick ~jobs =
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
  in
  let tiny scenario =
    {
      (Crash_surface.default scenario) with
      Crash_surface.window_start = Time.ms 2;
      window_length = Time.ms 2;
      stride = (if quick then 25 else 5);
      tight_window = Time.ms 20;
      tight_buffer_bytes = 64 * 1024;
    }
  in
  List.map
    (fun (name, sc) -> (name, Crash_surface.sweep_journal ~jobs (tiny sc)))
    [
      ("rapilog-hdd-s2", { scenario with Scenario.log_streams = 2 });
      ("rapilog-nvme", { scenario with Scenario.device = nvme_device });
    ]

(* ---- metrics-on vs metrics-off ------------------------------------- *)

(* The poles of the design space — low and high concurrency in each
   mode, plus the new nvme / multi-stream / adaptive configurations:
   the per-stage breakdowns EXPERIMENTS.md quotes, and the gate that
   instrumentation does not perturb the simulation. *)
let metrics_cells ~quick =
  let base =
    {
      Scenario.default with
      Scenario.warmup = Time.ms 100;
      duration = (if quick then Time.ms 300 else Time.ms 800);
      seed = 4242L;
    }
  in
  [
    ("native-sync/1", { base with Scenario.mode = Scenario.Native_sync; clients = 1 });
    ("native-sync/32", { base with Scenario.mode = Scenario.Native_sync; clients = 32 });
    ("rapilog/1", { base with Scenario.mode = Scenario.Rapilog; clients = 1 });
    ("rapilog/32", { base with Scenario.mode = Scenario.Rapilog; clients = 32 });
    ("rapilog-replicated/1", replicated { base with Scenario.clients = 1 });
    ("rapilog-replicated/32", replicated { base with Scenario.clients = 32 });
    ( "rapilog-nvme/16",
      { base with Scenario.mode = Scenario.Rapilog; device = nvme_device; clients = 16 } );
    ( "native-sync-nvme-adaptive/16",
      with_policy
        {
          base with
          Scenario.mode = Scenario.Native_sync;
          device = nvme_device;
          clients = 16;
        }
        adaptive_policy );
    ( "rapilog-s2/16",
      { base with Scenario.mode = Scenario.Rapilog; log_streams = 2; clients = 16 } );
  ]

let bench_metrics ~quick =
  List.map
    (fun (label, config) ->
      let plain = Experiment.run_steady config in
      let instrumented, registry = Experiment.run_steady_metrics config in
      (label, config, plain = instrumented, registry))
    (metrics_cells ~quick)

(* ---- main ----------------------------------------------------------- *)

let usage () =
  print_endline
    "usage: perf.exe [--quick] [--check] [--jobs N] [--output PATH]\n\
    \       perf.exe [--quick] [--jobs N] --speedup";
  exit 2

let () =
  let quick = ref false in
  let check = ref false in
  let jobs = ref (Parallel.default_jobs ()) in
  let output = ref "BENCH_PR8.json" in
  let speedup = ref false in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest -> quick := true; parse rest
    | "--check" :: rest -> check := true; parse rest
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n >= 1 -> jobs := n
        | _ -> usage ());
        parse rest
    | "--output" :: path :: rest -> output := path; parse rest
    | "--speedup" :: rest -> speedup := true; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let quick = !quick and jobs = !jobs in
  if !speedup then begin
    speedup_gate ~quick ~jobs;
    exit 0
  end;
  let micro_events = if quick then 200_000 else 2_000_000 in

  Printf.printf "perf: event-queue microbench (%d events)...\n%!" micro_events;
  let eq_rate, eq_words, _ = bench_event_queue ~events:micro_events in
  Printf.printf "perf: sim-step microbench (%d events)...\n%!" micro_events;
  let step_rate, step_words, _ = bench_sim_step ~events:micro_events in
  Printf.printf "perf: net-link microbench (%d messages)...\n%!" micro_events;
  let link_rate, link_words, _ = bench_net_link ~events:micro_events in
  Printf.printf "perf: nvme-submit microbench (%d writes)...\n%!" micro_events;
  let nvme_rate, nvme_words, _ = bench_nvme_submit ~events:micro_events in
  Printf.printf "perf: log-append microbench (%d records)...\n%!" micro_events;
  let append_rate, append_words, _ = bench_log_append ~events:micro_events in
  Printf.printf "perf: commit-policy microbench (%d decisions)...\n%!" micro_events;
  let policy_rate, policy_words, _ = bench_commit_policy ~events:micro_events in
  Printf.printf "perf: rng-int microbench (%d draws)...\n%!" micro_events;
  let rng_rate, rng_words, _ = bench_rng_int ~events:micro_events in
  Printf.printf "perf: rng-zipf microbench (%d draws)...\n%!" micro_events;
  let zipf_rate, zipf_words, _ = bench_rng_zipf ~events:micro_events in
  Printf.printf "perf: wheel-vs-heap standard mix (%d pairs per run)...\n%!"
    micro_events;
  let ( (wheel_rate, wheel_words, wheel_fp),
        (heap_rate, heap_words, heap_fp) ) =
    bench_wheel_vs_heap ~quick ~events:micro_events
  in
  Printf.printf "perf: scenario sweep at jobs=1 then jobs=%d...\n%!" jobs;
  let cores = Domain.recommended_domain_count () in
  let scenarios, serial_results, serial_s, parallel_timing, identical =
    bench_sweep ~quick ~jobs ~cores
  in
  Printf.printf "perf: commit-path grid (device x streams x policy x clients)...\n%!";
  let commit_rows, commit_identical = bench_commit_path ~quick ~jobs in
  Printf.printf "perf: journal crash sweep over nvme and multi-stream configs...\n%!";
  let journal_results = journal_cells ~quick ~jobs in
  Printf.printf "perf: per-stage metrics breakdown (%d cells)...\n%!"
    (List.length (metrics_cells ~quick));
  let metrics_rows = bench_metrics ~quick in
  let metrics_identical =
    List.for_all (fun (_, _, same, _) -> same) metrics_rows
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
  let micro_section events_label events rate words =
    Obj
      [
        (events_label, Num (float_of_int events));
        ("events_per_sec", Num rate);
        ("minor_words_per_event", Num words);
      ]
  in

  let report =
    Obj
      [
        ("pr", Num 8.);
        ("harness", Str "perf.exe");
        ("quick", Bool quick);
        ("cores", Num (float_of_int cores));
        ("jobs", Num (float_of_int jobs));
        ("event_queue", micro_section "events" micro_events eq_rate eq_words);
        ( "wheel_vs_heap",
          Obj
            [
              ("pairs", Num (float_of_int micro_events));
              ( "wheel",
                Obj
                  [
                    ("events_per_sec", Num wheel_rate);
                    ("minor_words_per_event", Num wheel_words);
                  ] );
              ( "heap",
                Obj
                  [
                    ("events_per_sec", Num heap_rate);
                    ("minor_words_per_event", Num heap_words);
                  ] );
              ("wheel_over_heap", Num (wheel_rate /. heap_rate));
              ("order_fingerprint_equal", Bool (wheel_fp = heap_fp));
            ] );
        ("sim_step", micro_section "events" micro_events step_rate step_words);
        ("net_link", micro_section "messages" micro_events link_rate link_words);
        ("nvme_submit", micro_section "writes" micro_events nvme_rate nvme_words);
        ("log_append", micro_section "records" micro_events append_rate append_words);
        ( "commit_policy",
          micro_section "decisions" micro_events policy_rate policy_words );
        ("rng_int", micro_section "draws" micro_events rng_rate rng_words);
        ("rng_zipf", micro_section "draws" micro_events zipf_rate zipf_words);
        ( "sweep",
          Obj
            ([
               ("scenarios", Num (float_of_int scenarios));
               ("serial_seconds", Num serial_s);
             ]
            @ speedup_json
            @ [
                ("bit_identical", Bool identical);
                ("results", Arr (List.map steady_fingerprint serial_results));
              ]) );
        ( "commit_path",
          Obj
            [
              ("cells", Num (float_of_int (List.length commit_rows)));
              ("bit_identical", Bool commit_identical);
              ( "results",
                Arr
                  (List.map
                     (fun (cell, r) ->
                       Obj
                         [
                           ("device", Str cell.cc_device);
                           ("streams", Num (float_of_int cell.cc_streams));
                           ( "policy",
                             Str (Dbms.Commit_policy.to_string cell.cc_policy) );
                           ("clients", Num (float_of_int cell.cc_clients));
                           ("throughput", Num r.Experiment.throughput);
                           ("p50_us", Num r.Experiment.latency_p50_us);
                           ("p99_us", Num r.Experiment.latency_p99_us);
                           ( "log_writes",
                             Num (float_of_int r.Experiment.physical_log_writes)
                           );
                           ( "wal_forces",
                             Num (float_of_int r.Experiment.wal_forces) );
                         ])
                     commit_rows) );
            ] );
        ( "crash_journal",
          Arr
            (List.map
               (fun (name, (r : Crash_surface.result)) ->
                 Obj
                   [
                     ("config", Str name);
                     ("explored", Num (float_of_int r.Crash_surface.r_explored));
                     ( "contract_breaks",
                       Num (float_of_int r.Crash_surface.r_contract_breaks) );
                     ("lost_total", Num (float_of_int r.Crash_surface.r_lost_total));
                   ])
               journal_results) );
        ( "metrics",
          Obj
            [
              ("bit_identical_to_uninstrumented", Bool metrics_identical);
              ( "runs",
                Arr
                  (List.map
                     (fun (label, _, same, registry) ->
                       Obj
                         [
                           ("cell", Str label);
                           ("identical_to_uninstrumented", Bool same);
                           ("registry", Metrics_report.json_of registry);
                         ])
                     metrics_rows) );
            ] );
      ]
  in
  let text = Json.to_string report in
  let oc = open_out !output in
  output_string oc text;
  close_out oc;
  Printf.printf
    "perf: queue %.2fM ev/s (%.3f words/ev) | step %.2fM ev/s (%.3f words/ev)\n"
    (eq_rate /. 1e6) eq_words (step_rate /. 1e6) step_words;
  Printf.printf
    "perf: standard mix: wheel %.2fM ev/s (%.3f words/ev) vs heap %.2fM ev/s \
     (%.2fx), order fingerprints equal: %b\n"
    (wheel_rate /. 1e6) wheel_words (heap_rate /. 1e6)
    (wheel_rate /. heap_rate) (wheel_fp = heap_fp);
  Printf.printf "perf: link %.2fM msg/s (%.3f words/msg)\n" (link_rate /. 1e6)
    link_words;
  Printf.printf
    "perf: nvme %.2fM wr/s (%.3f words/wr) | append %.2fM rec/s (%.3f words/rec) \
     | policy %.2fM dec/s (%.3f words/dec)\n"
    (nvme_rate /. 1e6) nvme_words (append_rate /. 1e6) append_words
    (policy_rate /. 1e6) policy_words;
  Printf.printf
    "perf: rng int %.2fM draws/s (%.3f words/draw) | zipf %.2fM draws/s \
     (%.3f words/draw)\n"
    (rng_rate /. 1e6) rng_words (zipf_rate /. 1e6) zipf_words;
  Printf.printf
    "perf: sweep %d scenarios: serial %.2fs, %s, bit-identical: %b\n"
    scenarios serial_s speedup_note identical;
  Printf.printf "perf: commit-path grid %d cells, bit-identical: %b\n"
    (List.length commit_rows) commit_identical;
  List.iter
    (fun (name, (r : Crash_surface.result)) ->
      Printf.printf
        "perf: journal sweep %s: %d boundaries, %d contract breaks, %d lost\n"
        name r.Crash_surface.r_explored r.Crash_surface.r_contract_breaks
        r.Crash_surface.r_lost_total)
    journal_results;
  Printf.printf
    "perf: metrics %d cells, bit-identical to uninstrumented: %b\n"
    (List.length metrics_rows) metrics_identical;
  Printf.printf "perf: wrote %s\n%!" !output;

  if !check then begin
    let failures = ref [] in
    let fail msg = failures := msg :: !failures in
    (match Json.of_string text with
    | exception Json.Parse_error msg ->
        fail (Printf.sprintf "report is not valid JSON: %s" msg)
    | Obj _ -> ()
    | _ -> fail "report is not a JSON object");
    if not identical then fail "parallel sweep results differ from serial";
    if not commit_identical then
      fail "parallel commit-path grid differs from serial";
    if not metrics_identical then
      fail "metrics-on steady results differ from metrics-off";
    commit_path_gate commit_rows ~fail;
    List.iter
      (fun (name, (r : Crash_surface.result)) ->
        if r.Crash_surface.r_explored < 6 then
          fail
            (Printf.sprintf "journal sweep %s explored only %d boundaries" name
               r.Crash_surface.r_explored);
        if r.Crash_surface.r_contract_breaks <> 0 then
          fail
            (Printf.sprintf "journal sweep %s: %d contract breaks (want 0)" name
               r.Crash_surface.r_contract_breaks);
        if r.Crash_surface.r_lost_total <> 0 then
          fail
            (Printf.sprintf
               "journal sweep %s: %d acknowledged commits lost (want 0)" name
               r.Crash_surface.r_lost_total))
      journal_results;
    (* Every instrumented cell must populate the commit-path stages: the
       client-visible total plus at least one stage below it. *)
    List.iter
      (fun (label, (config : Scenario.config), _, registry) ->
        let hist_count name =
          match Desim.Metrics.find registry name with
          | Some (Desim.Metrics.Histogram h) -> Desim.Metrics.Histogram.count h
          | Some _ | None -> 0
        in
        let require name =
          if hist_count name = 0 then
            fail
              (Printf.sprintf "metrics %s: stage %S has no observations" label
                 name)
        in
        require "commit.total";
        require "commit.force";
        require "wal.force_write";
        (match config.Scenario.mode with
        | Scenario.Rapilog -> require "logger.admission"
        | Scenario.Rapilog_quorum ->
            require "logger.admission";
            require "logger.replicate";
            require "logger.quorum_wait";
            require "net.link_delay"
        | _ -> ()))
      metrics_rows;
    let alloc_gate name words =
      if words > 0.5 then
        fail
          (Printf.sprintf "%s allocates %.3f minor words/event (want 0)" name
             words)
    in
    alloc_gate "Sim.step" step_words;
    alloc_gate "event queue" eq_words;
    alloc_gate "wheel standard mix" wheel_words;
    (* The wheel must preserve the heap's exact pop order on the
       mixed-horizon stream (its rate against the heap is --speedup's). *)
    if wheel_fp <> heap_fp then
      fail "wheel pop order diverges from heap on the standard mix";
    alloc_gate "net link" link_words;
    alloc_gate "nvme submit" nvme_words;
    alloc_gate "log append" append_words;
    alloc_gate "commit-policy decision" policy_words;
    alloc_gate "Rng.int" rng_words;
    alloc_gate "Rng.Zipf.sample" zipf_words;
    match !failures with
    | [] -> print_endline "perf: check OK"
    | msgs ->
        List.iter (fun m -> Printf.eprintf "perf: CHECK FAILED: %s\n" m) msgs;
        exit 1
  end
