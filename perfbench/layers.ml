(* The per-layer metrics, named <library>.<metric>, computed from one
   traced run (registry activity inside the measurement window) and its
   untraced twin (host timings, which tracing would inflate). *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }
let us h q = Window.quantile h q
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

type inputs = {
  plain : Steady.run;  (** untraced *)
  traced : Steady.run;  (** same config, registry installed *)
  scen_s : float;  (** Scen.Builder.build *)
  overhead : float;  (** traced ÷ untraced host time, median over pairs *)
  queue_ns : float;
  codec : Probes.codec;
  gen_ns : float;
  sweep : sweep option;
}

and sweep = {
  enumerate_s : float;
  sweep_s : float;
  points : int;
  breaks : int;
  lost : int;
}

let window_of (r : Steady.run) =
  match r.Steady.window with Some w -> w | None -> invalid_arg "untraced run has no registry"

let whole_of (r : Steady.run) =
  match r.Steady.whole with Some w -> w | None -> invalid_arg "untraced run has no registry"

(* The untraced unit's host spans as (name, start, stop, parent), in
   seconds from the unit's start: the phases run one after another. *)
let spans i =
  let h = i.plain.Steady.host in
  let phases =
    [
      ("Scen.Builder.build", i.scen_s);
      ("Scenario.build", h.Steady.build_s);
      ("loader", h.Steady.load_s);
      ("warm-up", h.Steady.warmup_s);
      ("Sim.step loop", h.Steady.loop_s);
      ("Power_domain.cut and settle", h.Steady.cut_s);
      ("Recovery.run, repeated", h.Steady.recoveries_s);
      ("Audit.check", h.Steady.audit_s);
    ]
  in
  let _, children =
    List.fold_left
      (fun (at, acc) (name, d) -> (at +. d, (name, at, at +. d, "unit") :: acc))
      (0., []) phases
  in
  ("unit", 0., i.scen_s +. h.Steady.total_s, "") :: List.rev children

(* Reconciliation of the traced run. Each entry: metric, and whether it
   holds. *)
let bucket_width = 0.0625

let reconcile i =
  let w = window_of i.traced in
  let s = i.traced.Steady.sim in
  let total = Window.hist w "commit.total" in
  let exec = Window.hist w "commit.exec" and force = Window.hist w "commit.force" in
  let force_write = Window.hist w "wal.force_write" in
  let virtio = Window.hist_prefix w "virtio.write:rapilog:" in
  let sum_mean = Window.mean exec +. Window.mean force in
  let exec_force = sum_mean /. Window.mean total in
  (* The WAL leader's write is the paravirtual round trip into the
     trusted logger, so the two agree to a bucket. A committer waits for
     the force that covers its commit record, and at most for one force
     already in flight before it: its commit.force lies between one and
     two force writes. *)
  let force_vs_write = Window.mean force /. Window.mean force_write in
  let write_vs_virtio = Window.mean force_write /. Window.mean virtio in
  let spans_vs_wall =
    match spans i with
    | (_, _, wall, _) :: children ->
        List.fold_left (fun acc (_, a, b, _) -> acc +. (b -. a)) 0. children /. wall
    | [] -> 0.
  in
  let commits = ratio total.Window.count (Array.length s.Steady.write_lat) in
  let within tol x = Float.abs (x -. 1.) <= tol in
  [
    (m "reconcile.exec_plus_force_over_total" "ratio" exec_force, within bucket_width exec_force);
    ( m "reconcile.force_over_force_write" "ratio" force_vs_write,
      force_vs_write >= 1. -. bucket_width && force_vs_write <= 2. +. bucket_width );
    ( m "reconcile.force_write_over_virtio" "ratio" write_vs_virtio,
      within bucket_width write_vs_virtio );
    (m "reconcile.spans_over_wall" "ratio" spans_vs_wall, within 0.02 spans_vs_wall);
    (m "reconcile.window_commit_count" "ratio" commits, within 0. commits);
  ]

let metrics i =
  let w = window_of i.traced and whole = whole_of i.traced in
  let s = i.plain.Steady.sim and h = i.plain.Steady.host in
  let committed = Steady.committed s in
  let hist = Window.hist w in
  let logger f = match s.Steady.logger with Some l -> f l | None -> 0. in
  let append_bytes = Window.counter whole "wal.append_bytes" in
  let log_bytes = s.Steady.log_bytes in
  let forces_in_window = (hist "wal.force_write").Window.count in
  let write_commits = Array.length s.Steady.write_lat in
  let sweep f = match i.sweep with Some sw -> f sw | None -> 0. in
  [
    m "desim.events_per_txn" "count" (ratio s.Steady.window_events committed);
    m "desim.host_ns_per_event" "ns"
      (h.Steady.loop_s *. 1e9 /. float_of_int (max 1 s.Steady.window_events));
    m "desim.queue_ns_per_event" "ns" i.queue_ns;
    m "desim.max_pending" "count" (float_of_int s.Steady.max_pending);
    m "hypervisor.core_wait_p50_us" "us" (us (hist "vmm.core_wait") 0.5);
    m "hypervisor.core_wait_p99_us" "us" (us (hist "vmm.core_wait") 0.99);
    m "hypervisor.virtio_write_p50_us" "us"
      (us (Window.hist_prefix w "virtio.write:rapilog:") 0.5);
    m "rapilog.admission_p50_us" "us" (us (hist "logger.admission") 0.5);
    m "rapilog.admission_p99_us" "us" (us (hist "logger.admission") 0.99);
    m "rapilog.ring_wait_p99_us" "us" (us (hist "logger.ring_wait") 0.99);
    m "rapilog.coalescing" "ratio"
      (logger (fun l -> ratio l.Steady.acked_writes l.Steady.drain_writes));
    m "rapilog.backpressure_stalls" "count" (logger (fun l -> float_of_int l.Steady.stalls));
    m "rapilog.max_buffered_kib" "KiB"
      (logger (fun l -> float_of_int l.Steady.max_buffered /. 1024.));
    m "dbms.commit_exec_p50_us" "us" (us (hist "commit.exec") 0.5);
    m "dbms.commit_force_p50_us" "us" (us (hist "commit.force") 0.5);
    m "dbms.commit_force_p99_us" "us" (us (hist "commit.force") 0.99);
    m "dbms.forces_per_commit" "ratio" (ratio forces_in_window write_commits);
    m "dbms.log_bytes_per_txn" "B" (ratio (Window.counter w "wal.append_bytes") write_commits);
    m "dbms.aborts" "count" (float_of_int s.Steady.aborts);
    m "dbms.pool_hit_rate" "ratio"
      (ratio s.Steady.pool_hits (s.Steady.pool_hits + s.Steady.pool_misses));
    m "dbms.pool_evictions" "count" (float_of_int s.Steady.pool_evictions);
    m "dbms.encode_ns_per_record" "ns" i.codec.Probes.encode_ns;
    m "dbms.decode_ns_per_record" "ns" i.codec.Probes.decode_ns;
    m "dbms.crc_ns_per_kib" "ns" i.codec.Probes.crc_ns_per_kib;
    m "dbms.recovery_records" "count" (float_of_int s.Steady.durable_records);
    m "dbms.redo_applied" "count" (float_of_int s.Steady.redo_applied);
    m "dbms.undo_applied" "count" (float_of_int s.Steady.undo_applied);
    m "dbms.recovery_records_per_s" "1/s"
      (float_of_int s.Steady.durable_records /. h.Steady.recovery_s);
    m "storage.log_writes" "count" (float_of_int s.Steady.log_writes);
    m "storage.log_mib_written" "MiB" (float_of_int log_bytes /. 1048576.);
    m "storage.log_flushes" "count" (float_of_int s.Steady.log_flushes);
    m "storage.write_amp" "ratio" (ratio log_bytes append_bytes);
    m "storage.device_write_p50_us" "us" s.Steady.log_write_p50_us;
    m "storage.log_busy_frac" "ratio" (ratio s.Steady.log_busy_ns s.Steady.end_ns);
    m "storage.data_writes" "count" (float_of_int s.Steady.data_writes);
    m "power.drain_ms" "ms" (float_of_int s.Steady.drain_ns /. 1e6);
    m "power.holdup_margin_ms" "ms"
      (float_of_int (s.Steady.holdup_ns - s.Steady.drain_ns) /. 1e6);
    m "net.link_delay_p50_us" "us" (us (hist "net.link_delay") 0.5);
    m "net.quorum_wait_p50_us" "us" (us (hist "logger.quorum_wait") 0.5);
    m "net.quorum_wait_p99_us" "us" (us (hist "logger.quorum_wait") 0.99);
    m "net.replicate_p50_us" "us" (us (hist "logger.replicate") 0.5);
    m "net.replica_drain_p50_us" "us" (us (hist "replica.drain") 0.5);
    m "workload.gen_ns_per_txn" "ns" i.gen_ns;
    m "workload.offered_ratio" "ratio"
      (if s.Steady.expected_arrivals > 0. then
         float_of_int s.Steady.arrivals /. s.Steady.expected_arrivals
       else 0.);
    m "harness.enumerate_s" "s" (sweep (fun sw -> sw.enumerate_s));
    m "harness.points" "count" (match i.sweep with Some sw -> float_of_int sw.points | None -> 1.);
    m "harness.us_per_point" "us"
      (match i.sweep with
      | Some sw -> sw.sweep_s *. 1e6 /. float_of_int (max 1 sw.points)
      | None -> (h.Steady.cut_s +. h.Steady.recovery_s +. h.Steady.audit_s) *. 1e6);
    m "harness.contract_breaks" "count" (sweep (fun sw -> float_of_int sw.breaks));
    m "harness.lost" "count"
      (float_of_int s.Steady.lost +. sweep (fun sw -> float_of_int sw.lost));
    m "harness.load_s" "s" h.Steady.load_s;
    m "harness.scenario_build_s" "s" h.Steady.build_s;
    m "harness.audit_s" "s" h.Steady.audit_s;
    m "scen.build_s" "s" i.scen_s;
    m "trace.overhead" "ratio" i.overhead;
  ]

(* Why a per-layer metric reads 0 on a workload. *)
let why_zero name =
  if String.length name > 4 && String.sub name 0 4 = "net." then
    "no network on this workload: only quorum-ycsb replicates"
  else
    match name with
    | "workload.offered_ratio" -> "closed loop: there is no offered rate"
    | "harness.enumerate_s" -> "no sweep on this workload"
    | "power.drain_ms" -> "the trusted buffer was already empty at the power cut"
    | _ -> "counted, and none occurred in this run"
