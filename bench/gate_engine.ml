(* engine and speedup: the performance gates, the trajectory later
   changes must not regress.

   engine measures, with fixed seeds:
   - the desim core: event-queue add/pop throughput and the Sim.step hot
     path's allocation rate (minor words per event — the bar is zero);
   - the timer-wheel event queue against the binary heap it replaced,
     both driven by one deterministic mixed-horizon op stream — the
     wheel must match the heap's pop order exactly (fingerprint) and
     allocate nothing;
   - the commit-path hot paths: the link send, the NVMe submission
     arithmetic, the WAL stream append, the adaptive group-commit
     decision and the workload generators' random draws — all gated
     allocation-free;
   - the recovery scan's allocation per byte of log it reads, and a
     WAL force's allocation beyond its device image;
   - the commit-path grid: throughput and p50/p99 commit latency across
     device × WAL stream count × commit policy × client count, with the
     adaptive policy required to beat fixed batching on p99 at every
     nvme cell;
   - the journal crash sweep over a multi-stream and an nvme rapilog
     config: zero contract breaks and zero acknowledged commits lost;
   - a fixed scenario sweep run serially and on the worker pool, the
     results bit-identical;
   - the observability layer: the same scenarios with and without the
     metrics registry installed, the steady results bit-identical and
     the per-stage commit-latency histograms reported.

   speedup holds the two wall-clock claims, which engine reports but
   does not gate: the wheel is no slower than the heap, and the sweep's
   parallel speedup is above 1x on two cores (2x from four). Each is the
   median of five alternating pairs, and the [speedup] alias in
   bench/dune runs it apart from the test suite, whose rules would
   compete for the same cores. *)

open Desim
open Harness
open Harness.Json

let per_op = Bench_support.per_op

(* ---- desim microbenchmarks ----------------------------------------- *)

(* Raw queue churn: keep a standing population and cycle add+pop. *)
let bench_event_queue ~events =
  let q = Event_queue.create () in
  for i = 0 to 1023 do
    Event_queue.add q ~time:(Time.of_ns i) i
  done;
  per_op ~ops:events (fun () ->
      for i = 0 to events - 1 do
        Event_queue.add q ~time:(Time.of_ns (1024 + i)) i;
        ignore (Event_queue.pop_min q)
      done)

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
    let rate, words =
      per_op ~ops:events (fun () ->
          for i = 0 to events - 1 do
            state := mix_lcg !state;
            Q.add q ~time:(Time.of_ns (!low + mix_delta !state)) i;
            let t = Time.to_ns (Q.min_time q) in
            let v = Q.pop_min q in
            low := t;
            fp := mix_lcg (!fp lxor t lxor (v * 0x1000003))
          done)
    in
    (rate, words, !fp)
end

module Wheel_mix = Queue_mix (Event_queue)
module Heap_mix = Queue_mix (Binary_heap)

(* Throughput comparisons on a shared machine take the best of [n]
   runs — the minimum-noise estimate of each backend's capability. The
   allocation figure and fingerprint are deterministic across runs. *)
let best_of n f =
  let runs = List.init n (fun _ -> f ()) in
  let _, words, fp = List.hd runs in
  (List.fold_left (fun acc (rate, _, _) -> max acc rate) 0. runs, words, fp)

(* The Sim.step hot path: one self-rescheduling closure, so every
   simulated event exercises schedule_after + step + pop with no
   per-event closure construction. *)
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
  per_op ~ops:(events - 8) (fun () -> Sim.run sim)

(* The Link hot path: a preallocated self-rescheduling sender, constant
   latency (no rng), zero drop probability (no rng), int payloads in the
   flat ring, the preallocated pump delivering each message. *)
let bench_net_link ~events =
  let sim = Sim.create ~seed:9L () in
  let config =
    { Net.Link.latency = Net.Link.Constant (Time.ns 100); bandwidth = 0.; drop_probability = 0. }
  in
  let link = Net.Link.create sim config ~dummy:0 ~deliver:ignore in
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
  per_op ~ops:(events - 33) (fun () -> Sim.run sim)

(* ---- commit-path microbenchmarks ----------------------------------- *)

(* The NVMe submission hot path: the pure service-time arithmetic every
   request performs plus the per-write zone accounting. Both run on the
   live request path at queue-depth concurrency. *)
let bench_nvme_submit ~events =
  let config = Storage.Nvme.default in
  let zones = Storage.Nvme.Zones.create config in
  let span = config.Storage.Nvme.capacity_sectors - 16 in
  let sink = ref 0 in
  per_op ~ops:events (fun () ->
      for i = 0 to events - 1 do
        sink := !sink + Storage.Nvme.service_ns config ~sectors:16;
        Storage.Nvme.Zones.note_write zones ~lba:(i * 16 mod span) ~sectors:16
      done;
      ignore (Sys.opaque_identity !sink))

(* The WAL stream-append hot path: the pair of records the engine
   appends per update under the pg-like profile (an update with 96-byte
   images, then its 48-byte metadata filler), encoded straight into a
   warm stream buffer by the single-pass encoder. The buffer is
   recycled the way truncation recycles a live stream's, so growth
   never charges the measurement. *)
let bench_log_append ~events =
  let buf = Buffer.create (1 lsl 20) in
  let update =
    Dbms.Log_record.Update
      { txid = 7; key = 42; before = String.make 96 'b'; after = String.make 96 'a' }
  in
  let filler =
    Dbms.Log_record.Noop
      { filler = Dbms.Engine_profile.postgres_like.Dbms.Engine_profile.update_meta_bytes }
  in
  let limit = 1 lsl 19 in
  let append_pair () =
    Dbms.Log_record.encode_into update buf;
    Dbms.Log_record.encode_into filler buf
  in
  while Buffer.length buf < limit do
    append_pair ()
  done;
  Buffer.clear buf;
  per_op ~ops:events (fun () ->
      for _ = 1 to events / 2 do
        if Buffer.length buf > limit then Buffer.clear buf;
        append_pair ()
      done)

(* The recovery scan reads the log through one reused window and
   allocates, beyond it, only the records it returns: about one byte
   per byte of this log (mostly after-images). A scan that copies each
   2 MiB chunk into a fresh window allocates more than two. The
   dbms.log_scan test holds the same bound. *)
let scan_bytes_per_log_byte = 1.5

let measure_recovery_scan () =
  let rng = Desim.Rng.create 53L in
  let sector = 512 in
  let bytes = 4 * Dbms.Recovery.scan_chunk_sectors * sector in
  let buf = Buffer.create (bytes + 8192) in
  let txid = ref 0 in
  while Buffer.length buf < bytes do
    incr txid;
    let txid = !txid in
    Dbms.Log_record.encode_into (Dbms.Log_record.Begin { txid }) buf;
    Dbms.Log_record.encode_into
      (Dbms.Log_record.Update
         {
           txid;
           key = Desim.Rng.int rng 500;
           before = "";
           after = String.make (1 + Desim.Rng.int rng 4_000) 'v';
         })
      buf;
    Dbms.Log_record.encode_into (Dbms.Log_record.Commit { txid }) buf
  done;
  let wal_config = Dbms.Wal.default_config in
  let media = Storage.Block.Media.create ~sector_size:sector ~capacity_sectors:(1 lsl 17) in
  let padded = (Buffer.length buf + sector - 1) / sector * sector in
  Buffer.add_string buf (String.make (padded - Buffer.length buf) '\000');
  Storage.Block.Media.write media ~lba:wal_config.Dbms.Wal.log_start_lba
    ~data:(Buffer.contents buf);
  let log_device = Storage.Block.of_media media in
  Gc.full_major ();
  let before = Gc.allocated_bytes () in
  let records = Dbms.Recovery.scan_records ~log_device ~wal_config in
  let allocated = Gc.allocated_bytes () -. before in
  (List.length records, bytes, allocated /. float_of_int bytes)

(* A steady-state WAL force builds its device image in one zero-padded
   allocation. Each force here covers one pg-like update pair with
   700-byte images, so most images end mid-sector and need padding, on
   a device whose writes complete at once and keep nothing. Beyond the
   image (n bytes take n/8 + 2 words), a force may allocate only its
   bookkeeping: the lock's closure and the batch-size sample. A force
   that slices the stream and then concatenates the padding allocates
   each image about twice. *)
let wal_force_words_beyond_image = 32.

let measure_wal_force ~forces =
  let sim = Sim.create () in
  let sector_size = 512 in
  let ops =
    {
      Storage.Block.op_read = (fun ~lba:_ ~sectors -> String.make (sectors * sector_size) '\000');
      op_write = (fun ~lba:_ ~data:_ ~fua:_ -> ());
      op_flush = ignore;
      op_power_cut = ignore;
      op_durable_read_into = (fun ~lba:_ ~sectors:_ _ ~off:_ -> ());
      op_durable_extent = (fun () -> 0);
    }
  in
  let device =
    Storage.Block.make
      ~info:{ Storage.Block.model = "sink"; sector_size; capacity_sectors = 1 lsl 40 }
      ~stats:(Storage.Disk_stats.create ()) ~ops ()
  in
  let wal = Dbms.Wal.create sim Dbms.Wal.default_config ~device in
  let update =
    Dbms.Log_record.Update
      { txid = 7; key = 42; before = String.make 700 'b'; after = String.make 700 'a' }
  in
  let filler =
    Dbms.Log_record.Noop
      { filler = Dbms.Engine_profile.postgres_like.Dbms.Engine_profile.update_meta_bytes }
  in
  let force_pair () =
    ignore (Dbms.Wal.append wal update);
    Dbms.Wal.force wal (Dbms.Wal.append wal filler)
  in
  let result = ref (0., 0.) in
  ignore
    (Process.spawn sim (fun () ->
         (* Past the first compactions, so the stream buffer is at its
            steady size. *)
         for _ = 1 to 1_000 do
           force_pair ()
         done;
         let image_bytes = Dbms.Wal.force_bytes wal in
         let written_before = Stats.Sample.mean image_bytes *. float_of_int (Stats.Sample.count image_bytes) in
         Gc.minor ();
         let before = Gc.allocated_bytes () in
         for _ = 1 to forces do
           force_pair ()
         done;
         let words = (Gc.allocated_bytes () -. before) /. 8. in
         let written =
           (Stats.Sample.mean image_bytes *. float_of_int (Stats.Sample.count image_bytes))
           -. written_before
         in
         let per_force = written /. float_of_int forces in
         result := (per_force, (words /. float_of_int forces) -. ((per_force /. 8.) +. 2.))));
  Sim.run sim;
  !result

let adaptive_policy = Dbms.Commit_policy.Adaptive { target_ns = 100_000; max_batch = 16 }

(* The adaptive group-commit decision: pure integer arithmetic a
   committer runs between a clock read and a sleep, plus the EWMA
   update the WAL folds in after every device write. *)
let bench_commit_policy ~events =
  let ewma = ref 0 in
  let sink = ref 0 in
  per_op ~ops:events (fun () ->
      for i = 0 to events - 1 do
        ewma := Dbms.Commit_policy.ewma_update ~prev:!ewma ~obs:(8_000_000 - (i land 0xFFFFF));
        sink :=
          !sink
          + Dbms.Commit_policy.decide adaptive_policy ~ewma_ns:!ewma ~pending:(i land 7)
              ~waited_ns:(i land 0x3FFFF)
      done;
      ignore (Sys.opaque_identity !sink))

(* Bounded integer draws, the workload generators' unit of randomness
   (one per value byte in Value_gen). The bounds cycle through small,
   byte-sized and above-2^61 ones, the last taking the rejection loop
   about half the time. *)
let bench_rng_int ~events =
  let rng = Rng.create 42L in
  let bounds = [| 7; 256; 10_000; (1 lsl 61) + 1 |] in
  let sink = ref 0 in
  per_op ~ops:events (fun () ->
      for i = 0 to events - 1 do
        sink := !sink lxor Rng.int rng (Array.unsafe_get bounds (i land 3))
      done;
      ignore (Sys.opaque_identity !sink))

(* Zipf key draws, YCSB's unit of randomness (one per operation), over
   a 100k-key space at the YCSB skew. *)
let bench_rng_zipf ~events =
  let rng = Rng.create 42L in
  let dist = Rng.Zipf.create ~n:100_000 ~theta:0.99 in
  let sink = ref 0 in
  per_op ~ops:events (fun () ->
      for _ = 1 to events do
        sink := !sink + Rng.Zipf.sample rng dist
      done;
      ignore (Sys.opaque_identity !sink))

(* ---- scenario cells ------------------------------------------------- *)

let nvme_device = Scenario.Nvme Storage.Nvme.default

let with_policy config policy =
  {
    config with
    Scenario.profile = Dbms.Engine_profile.with_commit_policy config.Scenario.profile policy;
  }

(* The rapilog-replicated preset (RapiLog-R): the quorum cluster with one
   replica, committing on its ack. *)
let replicated (config : Scenario.config) =
  {
    config with
    Scenario.mode = Scenario.Rapilog_quorum;
    quorum = { config.Scenario.quorum with Net.Quorum.replicas = 1; quorum = 1 };
  }

let base ~quick =
  {
    Scenario.default with
    Scenario.warmup = Time.ms 100;
    duration = (if quick then Time.ms 300 else Time.ms 800);
    seed = 4242L;
  }

let sweep_grid ~quick =
  let config = base ~quick in
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
  (* One representative per newer axis, so the parallel-identity gate
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

(* The commit-path grid: throughput and p50/p99 commit latency across
   device × WAL stream count × commit policy × client count, in
   native-sync mode so the device's write latency sits on the commit
   path and the policies have something to fight over. *)
let commit_path_cells ~quick =
  let devices =
    if quick then [ ("hdd", Scenario.Disk Storage.Hdd.default_7200rpm); ("nvme", nvme_device) ]
    else
      [
        ("hdd", Scenario.Disk Storage.Hdd.default_7200rpm);
        ("ssd", Scenario.Flash Storage.Ssd.default);
        ("nvme", nvme_device);
      ]
  in
  let streams = if quick then [ 1; 2 ] else [ 1; 2; 4 ] in
  let clients = if quick then [ 16 ] else [ 8; 32 ] in
  let policies = [ Dbms.Commit_policy.Fixed 1; Dbms.Commit_policy.Fixed 8; adaptive_policy ] in
  List.concat_map
    (fun (device, config) ->
      List.concat_map
        (fun log_streams ->
          List.concat_map
            (fun clients ->
              List.map
                (fun policy ->
                  ( (device, log_streams, clients, policy),
                    with_policy
                      {
                        (base ~quick) with
                        Scenario.mode = Scenario.Native_sync;
                        device = config;
                        log_streams;
                        clients;
                      }
                      policy ))
                policies)
            clients)
        streams)
    devices

(* The journal crash sweep over a multi-stream rapilog config and an
   nvme rapilog config. Every explored boundary must keep the
   always-durable contract — no acknowledged commit lost, recovered
   state exact — or the newer commit paths bought their latency with
   correctness. *)
let journal_cells ~quick =
  let scenario =
    {
      Scenario.default with
      Scenario.mode = Scenario.Rapilog;
      workload =
        Scenario.Micro
          { Workload.Microbench.default_config with Workload.Microbench.keys = 64; value_bytes = 32 };
      clients = 2;
      seed = 99L;
    }
  in
  let tiny scenario =
    {
      (Gate.surface scenario ~length:(Time.ms 2)) with
      Crash_surface.stride = (if quick then 25 else 5);
      tight_buffer_bytes = 64 * 1024;
    }
  in
  [
    ("rapilog-hdd-s2", tiny { scenario with Scenario.log_streams = 2 });
    ("rapilog-nvme", tiny { scenario with Scenario.device = nvme_device });
  ]

(* The poles of the design space — low and high concurrency in each
   mode, plus the nvme / multi-stream / adaptive configurations: the
   per-stage breakdowns EXPERIMENTS.md quotes, and the gate that
   instrumentation does not perturb the simulation. *)
let metrics_cells ~quick =
  let base = base ~quick in
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
        { base with Scenario.mode = Scenario.Native_sync; device = nvme_device; clients = 16 }
        adaptive_policy );
    ("rapilog-s2/16", { base with Scenario.mode = Scenario.Rapilog; log_streams = 2; clients = 16 });
  ]

(* ---- engine --------------------------------------------------------- *)

let engine (g : Gate.t) =
  let quick = g.Gate.quick in
  let events = if quick then 200_000 else 2_000_000 in
  let micro section label bench =
    Printf.printf "engine: %s microbench (%d %s)...\n%!" section events label;
    let rate, words = bench ~events in
    Printf.printf "engine: %s %.2fM/s, %.3f words each\n%!" section (rate /. 1e6) words;
    Gate.check g ("alloc." ^ section) (words <= 0.5)
      (Printf.sprintf "allocates %.3f minor words/event (want 0)" words);
    Gate.report g section
      (Obj
         [
           (label, Gate.num_int events);
           ("events_per_sec", Num rate);
           ("minor_words_per_event", Num words);
         ])
  in
  micro "event_queue" "events" bench_event_queue;
  micro "sim_step" "events" bench_sim_step;
  micro "net_link" "messages" bench_net_link;
  micro "nvme_submit" "writes" bench_nvme_submit;
  micro "log_append" "records" bench_log_append;
  micro "commit_policy" "decisions" bench_commit_policy;
  micro "rng_int" "draws" bench_rng_int;
  micro "rng_zipf" "draws" bench_rng_zipf;
  let scan_records, scan_bytes, scan_per_byte = measure_recovery_scan () in
  Printf.printf "engine: recovery scan %d records, %.2f B allocated per log byte\n%!"
    scan_records scan_per_byte;
  Gate.check g "alloc.recovery_scan" (scan_per_byte <= scan_bytes_per_log_byte)
    (Printf.sprintf "allocates %.2f B per log byte (bound %.2f)" scan_per_byte
       scan_bytes_per_log_byte);
  Gate.report g "recovery_scan"
    (Obj
       [
         ("records", Gate.num_int scan_records);
         ("log_bytes", Gate.num_int scan_bytes);
         ("bytes_allocated_per_log_byte", Num scan_per_byte);
       ]);

  let wal_forces = if quick then 20_000 else 200_000 in
  let image_bytes, beyond_image = measure_wal_force ~forces:wal_forces in
  Printf.printf "engine: wal force %.0f B image, %.1f words beyond it\n%!" image_bytes
    beyond_image;
  Gate.check g "alloc.wal_force" (beyond_image <= wal_force_words_beyond_image)
    (Printf.sprintf "allocates %.1f words per force beyond its %.0f-byte image (bound %.0f)"
       beyond_image image_bytes wal_force_words_beyond_image);
  Gate.report g "wal_force"
    (Obj
       [
         ("forces", Gate.num_int wal_forces);
         ("image_bytes_per_force", Num image_bytes);
         ("words_beyond_image_per_force", Num beyond_image);
       ]);

  let n = if quick then 2 else 3 in
  let wheel_rate, wheel_words, wheel_fp = best_of n (fun () -> Wheel_mix.run ~events) in
  let heap_rate, heap_words, heap_fp = best_of n (fun () -> Heap_mix.run ~events) in
  Printf.printf
    "engine: standard mix: wheel %.2fM ev/s (%.3f words/ev) vs heap %.2fM ev/s (%.2fx), \
     order fingerprints equal: %b\n%!"
    (wheel_rate /. 1e6) wheel_words (heap_rate /. 1e6) (wheel_rate /. heap_rate)
    (wheel_fp = heap_fp);
  Gate.check g "alloc.wheel_standard_mix" (wheel_words <= 0.5)
    (Printf.sprintf "allocates %.3f minor words/event (want 0)" wheel_words);
  (* The wheel must preserve the heap's exact pop order on the
     mixed-horizon stream (its rate against the heap is speedup's). *)
  Gate.check g "wheel.heap_order" (wheel_fp = heap_fp)
    "wheel pop order diverges from heap on the standard mix";
  let backend rate words =
    Obj [ ("events_per_sec", Num rate); ("minor_words_per_event", Num words) ]
  in
  Gate.report g "wheel_vs_heap"
    (Obj
       [
         ("pairs", Gate.num_int events);
         ("wheel", backend wheel_rate wheel_words);
         ("heap", backend heap_rate heap_words);
         ("wheel_over_heap", Num (wheel_rate /. heap_rate));
         ("order_fingerprint_equal", Bool (wheel_fp = heap_fp));
       ]);

  Printf.printf "engine: scenario sweep, serial then on the worker pool...\n%!";
  let grid = sweep_grid ~quick in
  let sweep =
    Gate.serial_vs_parallel (fun ~jobs -> Experiment.run_steady_batch ~jobs grid)
  in
  Printf.printf "engine: sweep %d scenarios: serial %.2fs, parallel %.2fs, bit-identical: %b\n%!"
    (List.length grid) sweep.Gate.serial_s sweep.Gate.parallel_s sweep.Gate.identical;
  Gate.check g "sweep.parallel_identical" sweep.Gate.identical
    "parallel sweep results differ from serial";
  Gate.report g "sweep"
    (Obj
       ([ ("scenarios", Gate.num_int (List.length grid)); ("serial_seconds", Num sweep.Gate.serial_s) ]
       @ Gate.speedup_json sweep
       @ [
           ("bit_identical", Bool sweep.Gate.identical);
           ("results", Arr (List.map (fun r -> Obj (Gate.steady_json r)) sweep.Gate.serial));
         ]));

  Printf.printf "engine: commit-path grid (device x streams x policy x clients)...\n%!";
  let keys, configs = List.split (commit_path_cells ~quick) in
  let commit =
    Gate.serial_vs_parallel (fun ~jobs -> Experiment.run_steady_batch ~jobs configs)
  in
  let rows = List.combine keys commit.Gate.serial in
  Gate.check g "commit_path.parallel_identical" commit.Gate.identical
    "parallel commit-path grid differs from serial";
  (* At every nvme cell, the adaptive policy's p99 must be no worse than
     fixed batching's (same device, streams and clients). On a device
     already at µs latency, holding commits to gather a batch cannot pay
     for itself — the adaptive policy is supposed to know that. *)
  List.iter
    (fun ((device, streams, clients, policy), r) ->
      match policy with
      | Dbms.Commit_policy.Fixed n when n > 1 && device = "nvme" ->
          let a = List.assoc (device, streams, clients, adaptive_policy) rows in
          Gate.check g
            (Printf.sprintf "commit_path.adaptive_p99/s%d/c%d/%s" streams clients
               (Dbms.Commit_policy.to_string policy))
            (a.Experiment.latency_p99_us <= r.Experiment.latency_p99_us)
            (Printf.sprintf "adaptive p99 %.0fus worse than %s p99 %.0fus"
               a.Experiment.latency_p99_us
               (Dbms.Commit_policy.to_string policy)
               r.Experiment.latency_p99_us)
      | _ -> ())
    rows;
  Gate.report g "commit_path"
    (Obj
       [
         ("cells", Gate.num_int (List.length rows));
         ("bit_identical", Bool commit.Gate.identical);
         ( "results",
           Arr
             (List.map
                (fun ((device, streams, _, policy), r) ->
                  Obj
                    ([
                       ("device", Str device);
                       ("streams", Gate.num_int streams);
                       ("policy", Str (Dbms.Commit_policy.to_string policy));
                     ]
                    @ Gate.steady_json r))
                rows) );
       ]);

  Printf.printf "engine: journal crash sweep over nvme and multi-stream configs...\n%!";
  let journal =
    List.map
      (fun (name, config) ->
        let r = Crash_surface.sweep_journal config in
        Printf.printf "engine: journal sweep %s: %d boundaries, %d contract breaks, %d lost\n%!"
          name r.Crash_surface.r_explored r.Crash_surface.r_contract_breaks
          r.Crash_surface.r_lost_total;
        Gate.check g ("crash_journal.explored/" ^ name) (r.Crash_surface.r_explored >= 6)
          (Printf.sprintf "explored only %d boundaries" r.Crash_surface.r_explored);
        Gate.check g ("crash_journal.breaks/" ^ name) (r.Crash_surface.r_contract_breaks = 0)
          (Printf.sprintf "%d contract breaks (want 0)" r.Crash_surface.r_contract_breaks);
        Gate.check g ("crash_journal.lost/" ^ name) (r.Crash_surface.r_lost_total = 0)
          (Printf.sprintf "%d acknowledged commits lost (want 0)" r.Crash_surface.r_lost_total);
        Gate.sweep_json ~label:name r)
      (journal_cells ~quick)
  in
  Gate.report g "crash_journal" (Arr journal);

  Printf.printf "engine: per-stage metrics breakdown (%d cells)...\n%!"
    (List.length (metrics_cells ~quick));
  let runs =
    List.map
      (fun (label, (config : Scenario.config)) ->
        let plain = Experiment.run_steady config in
        let instrumented, registry = Experiment.run_steady_metrics config in
        let same = plain = instrumented in
        Gate.check g ("metrics.identical/" ^ label) same
          "metrics-on steady results differ from metrics-off";
        (* Every instrumented cell must populate the commit-path stages:
           the client-visible total plus at least one stage below it. *)
        let require name =
          let count =
            match Metrics.find registry name with
            | Some (Metrics.Histogram h) -> Metrics.Histogram.count h
            | Some _ | None -> 0
          in
          Gate.check g
            (Printf.sprintf "metrics.stage/%s/%s" label name)
            (count > 0) "the stage has no observations"
        in
        List.iter require
          ([ "commit.total"; "commit.force"; "wal.force_write" ]
          @
          match config.Scenario.mode with
          | Scenario.Rapilog -> [ "logger.admission" ]
          | Scenario.Rapilog_quorum ->
              [ "logger.admission"; "logger.replicate"; "logger.quorum_wait"; "net.link_delay" ]
          | _ -> []);
        ( same,
          Obj
            [
              ("cell", Str label);
              ("identical_to_uninstrumented", Bool same);
              ("registry", Metrics_report.json_of registry);
            ] ))
      (metrics_cells ~quick)
  in
  Gate.report g "metrics"
    (Obj
       [
         ("bit_identical_to_uninstrumented", Bool (List.for_all fst runs));
         ("runs", Arr (List.map snd runs));
       ])

(* ---- speedup -------------------------------------------------------- *)

let speedup_pairs = 5

let median xs =
  let sorted = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length sorted in
  (sorted.((n - 1) / 2) +. sorted.(n / 2)) /. 2.

(* The median ratio over five alternating pairs, so one run slowed by a
   neighbour on a shared host cannot decide it. *)
let median_of_pairs (g : Gate.t) what pair =
  let ratios =
    List.init speedup_pairs (fun i ->
        let ratio, note = pair () in
        Printf.printf "speedup: %s pair %d: %s (%.2fx)\n%!" what (i + 1) note ratio;
        ratio)
  in
  let m = median ratios in
  Printf.printf "speedup: median %s %.2fx over %d pairs\n%!" what m speedup_pairs;
  Gate.report g what
    (Obj [ ("ratios", Arr (List.map (fun r -> Num r) ratios)); ("median", Num m) ]);
  m

let speedup (g : Gate.t) =
  let quick = g.Gate.quick in
  let events = if quick then 200_000 else 2_000_000 in
  (* The wheel must be no slower than the heap it replaced. *)
  let wheel =
    median_of_pairs g "wheel_over_heap" (fun () ->
        let wheel_rate, _, _ = Wheel_mix.run ~events in
        let heap_rate, _, _ = Heap_mix.run ~events in
        ( wheel_rate /. heap_rate,
          Printf.sprintf "wheel %.2fM ev/s, heap %.2fM ev/s" (wheel_rate /. 1e6)
            (heap_rate /. 1e6) ))
  in
  Gate.check g "wheel_no_slower" (wheel >= 1.)
    (Printf.sprintf "wheel median rate %.2fx the heap's on the standard mix" wheel);
  (* The multicore claim; a parallel timing needs two cores and two
     workers. *)
  let cores = Domain.recommended_domain_count () and jobs = Parallel.default_jobs () in
  if cores < 2 || jobs < 2 then
    Printf.printf "speedup: parallel speedup skipped (%d cores, jobs=%d)\n%!" cores jobs
  else begin
    let grid = sweep_grid ~quick in
    let identical = ref true in
    let m =
      median_of_pairs g "parallel_speedup" (fun () ->
          let r = Gate.serial_vs_parallel (fun ~jobs -> Experiment.run_steady_batch ~jobs grid) in
          identical := !identical && r.Gate.identical;
          ( r.Gate.serial_s /. r.Gate.parallel_s,
            Printf.sprintf "serial %.2fs, jobs=%d %.2fs" r.Gate.serial_s jobs r.Gate.parallel_s
          ))
    in
    Gate.check g "parallel_identical" !identical "parallel sweep results differ from serial";
    Gate.check g "parallel_over_1x" (m > 1.)
      (Printf.sprintf "parallel speedup %.2fx <= 1x on %d cores" m cores);
    if cores >= 4 && jobs >= 4 then
      Gate.check g "parallel_over_2x" (m >= 2.)
        (Printf.sprintf "parallel speedup %.2fx < 2x on >=4 cores" m)
  end

let experiments =
  [
    Gate.experiment ~id:"engine"
      ~title:"Engine gate: allocation-free hot paths, parallel and metrics identity"
      ~description:"hot paths allocation-free; wheel == heap order; sweeps bit-identical"
      engine;
    Gate.experiment ~id:"speedup"
      ~title:"Speedup gate: wheel vs heap and serial vs parallel, medians of five pairs"
      ~description:"wall-clock claims: wheel no slower than heap, parallel sweep > 1x"
      speedup;
  ]
