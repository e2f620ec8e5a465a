open Desim

type config = {
  buffer_bytes : int;
  copy_bandwidth : float;
  drain_max_bytes : int;
}

let default_config =
  { buffer_bytes = 8 * 1024 * 1024; copy_bandwidth = 1e9; drain_max_bytes = 512 * 1024 }

(* The ring policy as one state type: what admission accepts, which
   coalesced batch drains next, and what a power-fail does to the ring.
   The live logger below runs on it, and the journal crash sweep drives
   a copy of it through the same functions, so the post-cut drain the
   sweep checks is this code and not a second rendering of it. *)
module Ring_state = struct
  type t = { ring : Ring_buffer.t; config : config; mutable accepting : bool }

  let create config ~sector_size =
    {
      ring = Ring_buffer.create ~sector_size ~capacity_bytes:config.buffer_bytes;
      config;
      accepting = true;
    }

  let copy t = { t with ring = Ring_buffer.copy t.ring }
  let config t = t.config
  let accepting t = t.accepting
  let bytes_used t = Ring_buffer.bytes_used t.ring
  let is_empty t = Ring_buffer.is_empty t.ring

  let admit ?stamp t ~lba ~data =
    t.accepting && Ring_buffer.try_push ?stamp t.ring ~lba ~data

  let next_batch t =
    Ring_buffer.pop_coalesced t.ring ~max_bytes:t.config.drain_max_bytes

  let power_fail t = t.accepting <- false

  let drain t ~write =
    let running = ref true in
    while !running do
      let stamp = Ring_buffer.head_stamp t.ring in
      match next_batch t with
      | None -> running := false
      | Some { Ring_buffer.lba; data } -> running := write ~stamp ~lba ~data
    done
end

(* Commit-path stage handles, resolved once against the ambient registry
   at {!create} time (the {!Desim.Metrics} discipline: [None] when
   metrics are off, so the hot path pays one branch and no allocation). *)
type logger_metrics = {
  m_admission : Metrics.Histogram.t;  (* accept_write entry -> ack *)
  m_copy : Metrics.Histogram.t;       (* guest -> trusted buffer copy *)
  m_ring_wait : Metrics.Histogram.t;  (* push -> drain pop residency *)
  m_drain_write : Metrics.Histogram.t;  (* physical write of one batch *)
  m_buffered : Metrics.Gauge.t;       (* ring occupancy, bytes *)
  m_stalls : Metrics.Counter.t;
}

type t = {
  sim : Sim.t;
  device : Storage.Block.t;
  trace : Trace.t;
  state : Ring_state.t;
  arrived : Resource.Condition.t;
  space_freed : Resource.Condition.t;
  empty : Resource.Condition.t;
  mutable draining : bool;  (* a popped batch is being written *)
  mutable acked_bytes : int;
  mutable acked_writes : int;
  mutable drained_bytes : int;
  mutable drain_writes : int;
  mutable stalls : int;
  (* Replication (Net.Quorum): called at the admission instant with the
     1-based admission sequence number; may block the admitting writer
     until a quorum of replicas acks. [None] = single-machine logger,
     byte-identical to the pre-replication behaviour. *)
  mutable replicate : (seq:int -> lba:int -> data:string -> unit) option;
  journal : Journal.t option;
  metrics : logger_metrics option;
}

let journal_device t = Storage.Block.journal_id t.device

let drainer t () =
  let write ~stamp ~lba ~data =
    t.draining <- true;
    (match t.journal with
    | Some j ->
        Journal.pop j t.sim ~device:(journal_device t) ~lba
          ~bytes:(String.length data)
    | None -> ());
    (match t.metrics with
    | Some m ->
        (* Age of the batch head: push instant -> this pop. *)
        Metrics.Span.finish m.m_ring_wait t.sim stamp;
        Metrics.Gauge.set m.m_buffered
          (float_of_int (Ring_state.bytes_used t.state))
    | None -> ());
    let write_started =
      match t.metrics with Some _ -> Metrics.Span.start t.sim | None -> 0
    in
    Storage.Block.write t.device ~lba data;
    (match t.metrics with
    | Some m -> Metrics.Span.finish m.m_drain_write t.sim write_started
    | None -> ());
    t.drained_bytes <- t.drained_bytes + String.length data;
    t.drain_writes <- t.drain_writes + 1;
    Trace.emit t.trace t.sim ~tag:"drain" "wrote %d bytes at lba %d"
      (String.length data) lba;
    Resource.Condition.broadcast t.space_freed;
    true
  in
  while true do
    Ring_state.drain t.state ~write;
    t.draining <- false;
    Resource.Condition.broadcast t.empty;
    Resource.Condition.wait t.arrived
  done

let create sim ~domain ?(trace = Trace.null) config ~device =
  assert (config.buffer_bytes > 0 && config.copy_bandwidth > 0.);
  assert (Hypervisor.Domain.kind domain = Hypervisor.Domain.Trusted);
  let t =
    {
      sim;
      device;
      trace;
      state =
        Ring_state.create config
          ~sector_size:(Storage.Block.info device).Storage.Block.sector_size;
      arrived = Resource.Condition.create sim;
      space_freed = Resource.Condition.create sim;
      empty = Resource.Condition.create sim;
      draining = false;
      acked_bytes = 0;
      acked_writes = 0;
      drained_bytes = 0;
      drain_writes = 0;
      stalls = 0;
      replicate = None;
      journal = Journal.recording ();
      metrics =
        Option.map
          (fun reg ->
            {
              m_admission = Metrics.histogram reg "logger.admission";
              m_copy = Metrics.histogram reg "logger.copy";
              m_ring_wait = Metrics.histogram reg "logger.ring_wait";
              m_drain_write = Metrics.histogram reg "logger.drain_write";
              m_buffered = Metrics.gauge reg "logger.buffered_bytes";
              m_stalls = Metrics.counter reg "logger.backpressure_stalls";
            })
          (Metrics.recording ());
    }
  in
  ignore (Hypervisor.Domain.spawn domain ~name:"rapilog-drain" (drainer t));
  t

let config t = Ring_state.config t.state
let accepting t = Ring_state.accepting t.state

(* Admission totals are the ring's own push counters. *)
let admitted_bytes t = Ring_buffer.pushed_bytes t.state.ring
let admitted_writes t = Ring_buffer.pushes t.state.ring
let max_buffered_bytes t = Ring_buffer.max_bytes_used t.state.ring
let device t = t.device

let copy_span t len =
  Time.span_of_float_sec (float_of_int len /. (config t).copy_bandwidth)

let block_forever () = Process.suspend (fun (_ : unit Process.resumer) -> ())

(* Admission is re-checked after *every* blocking point: a writer that
   slept through the power-fail instant (in the copy, or stalled on a
   full buffer) must never acknowledge afterwards. Data it already
   pushed still drains — blocking only the acknowledgement is the
   conservative side of the contract. The runtime {!Invariants} monitor
   checks exactly this property, and caught the one-sided version of
   this code that checked admission only on entry. *)
let accept_write t ~lba ~data =
  if not (accepting t) then
    (* Power is failing: no new durability promises. The guest is about
       to lose power anyway; its process parks here. *)
    block_forever ()
  else begin
    let entered =
      match t.metrics with Some _ -> Metrics.Span.start t.sim | None -> 0
    in
    Process.sleep (copy_span t (String.length data));
    (match t.metrics with
    | Some m -> Metrics.Span.finish m.m_copy t.sim entered
    | None -> ());
    if not (accepting t) then block_forever ();
    let stamp = Time.to_ns (Sim.now t.sim) in
    while not (Ring_state.admit t.state ~stamp ~lba ~data) do
      t.stalls <- t.stalls + 1;
      (match t.metrics with
      | Some m -> Metrics.Counter.incr m.m_stalls
      | None -> ());
      Trace.emit t.trace t.sim ~tag:"backpressure" "buffer full (%d bytes)"
        (Ring_state.bytes_used t.state);
      Resource.Condition.wait t.space_freed;
      if not (accepting t) then block_forever ()
    done;
    if not (accepting t) then block_forever ();
    (match t.journal with
    | Some j -> Journal.push j t.sim ~device:(journal_device t) ~lba ~data
    | None -> ());
    (match t.replicate with
    | None -> ()
    | Some hook ->
        (* The entry is in the ring: let the local drain start on it
           while this writer waits on the wire (replica-ack). If power
           failed during the wait, the copy is safe on both sides but
           the acknowledgement must not happen. *)
        Resource.Condition.signal t.arrived;
        hook ~seq:(admitted_writes t) ~lba ~data;
        if not (accepting t) then block_forever ());
    t.acked_bytes <- t.acked_bytes + String.length data;
    t.acked_writes <- t.acked_writes + 1;
    (match t.metrics with
    | Some m ->
        Metrics.Span.finish m.m_admission t.sim entered;
        Metrics.Gauge.set m.m_buffered
          (float_of_int (Ring_state.bytes_used t.state))
    | None -> ());
    Resource.Condition.signal t.arrived
  end

let backend t =
  {
    Hypervisor.Virtio_blk.be_info =
      (let info = Storage.Block.info t.device in
       { info with Storage.Block.model = "rapilog:" ^ info.Storage.Block.model });
    be_read =
      (fun ~lba ~sectors ->
        (* The log region is not read back during normal operation; serve
           media contents (recovery uses durable reads instead). *)
        Storage.Block.read t.device ~lba ~sectors);
    be_write = (fun ~lba ~data ~fua:_ -> accept_write t ~lba ~data);
    be_flush = (fun () -> ());
    be_durable_read =
      (fun ~lba ~sectors -> Storage.Block.durable_read t.device ~lba ~sectors);
    be_durable_extent = (fun () -> Storage.Block.durable_extent t.device);
  }

let notify_power_fail t =
  Ring_state.power_fail t.state;
  Trace.emit t.trace t.sim ~tag:"power-fail"
    "admission closed; %d bytes to drain" (Ring_state.bytes_used t.state)

let attach_power t power =
  Power.Power_domain.on_power_fail power (fun ~window:_ -> notify_power_fail t);
  Power.Power_domain.register_device power t.device

let quiesce t =
  while not (Ring_state.is_empty t.state && not t.draining) do
    Resource.Condition.wait t.empty
  done

let set_replication t hook =
  (match t.replicate with
  | Some _ -> invalid_arg "Trusted_logger.set_replication: hook already set"
  | None -> ());
  t.replicate <- Some hook

let ring_snapshot t = Ring_state.copy t.state
let buffered_bytes t = Ring_state.bytes_used t.state
let acked_bytes t = t.acked_bytes
let drained_bytes t = t.drained_bytes
let acked_writes t = t.acked_writes
let drain_writes t = t.drain_writes
let backpressure_stalls t = t.stalls

let worst_case_flush t ~drain_bandwidth =
  assert (drain_bandwidth > 0.);
  Time.span_of_float_sec (float_of_int (max_buffered_bytes t) /. drain_bandwidth)
