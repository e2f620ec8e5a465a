open Desim

type config = {
  queue_depth : int;
  submit_overhead : Time.span;
  program_latency : Time.span;
  read_latency : Time.span;
  page_sectors : int;
  zone_sectors : int;
  capacity_sectors : int;
  sector_size : int;
}

let default =
  {
    queue_depth = 32;
    submit_overhead = Time.us 8;
    program_latency = Time.us 12;
    read_latency = Time.us 10;
    page_sectors = 8;
    zone_sectors = 1 lsl 16;
    capacity_sectors = 1 lsl 26;
    sector_size = 512;
  }

(* The timing helpers are pure in the geometry and the clock, exactly
   like {!Hdd.write_timeline}: the live request path and the crash
   sweep's journal reconstruction share them, so post-cut drain timing
   re-derived without re-running the simulation cannot drift from what
   the live device would have done. An NVMe write has no positional
   component — service is submission overhead plus one program round per
   page — and, unlike the disk, the drive-side start instant does not
   depend on the head, so the timeline is a pure function of [now_ns]. *)

let pages_of config sectors = (sectors + config.page_sectors - 1) / config.page_sectors

let service_ns config ~sectors =
  Time.span_to_ns config.submit_overhead
  + (pages_of config sectors * Time.span_to_ns config.program_latency)

type timeline = { wt_start_ns : int; wt_complete_ns : int }

let write_timeline config ~now_ns ~sectors =
  let start_ns = now_ns + Time.span_to_ns config.submit_overhead in
  {
    wt_start_ns = start_ns;
    wt_complete_ns =
      start_ns + (pages_of config sectors * Time.span_to_ns config.program_latency);
  }

module Zones = struct
  type t = {
    write_pointers : int array;  (* per-zone, relative to the zone start *)
    zone_sectors : int;
    mutable appends : int;
    mutable rewinds : int;
  }

  let create (config : config) =
    assert (config.zone_sectors > 0 && config.capacity_sectors mod config.zone_sectors = 0);
    {
      write_pointers = Array.make (config.capacity_sectors / config.zone_sectors) 0;
      zone_sectors = config.zone_sectors;
      appends = 0;
      rewinds = 0;
    }

  (* Hot path: integer arithmetic and two field bumps, no allocation. *)
  let note_write t ~lba ~sectors =
    let zone = lba / t.zone_sectors in
    let offset = lba - (zone * t.zone_sectors) in
    let wp = Array.unsafe_get t.write_pointers zone in
    if offset < wp then begin
      (* Behind the append pointer: the zone was implicitly rewound
         (rewritten in place) — the pattern zoned namespaces forbid and
         the stat the log layout is judged by. *)
      t.rewinds <- t.rewinds + 1;
      if offset + sectors > wp then
        Array.unsafe_set t.write_pointers zone (offset + sectors)
    end
    else begin
      t.appends <- t.appends + 1;
      Array.unsafe_set t.write_pointers zone (offset + sectors)
    end

  let appends t = t.appends
  let rewinds t = t.rewinds
end

type state = {
  sim : Sim.t;
  config : config;
  media : Block.Media.t;
  rng : Rng.t;
  qd : Resource.Semaphore.t;
  zones : Zones.t;
  (* Started-but-unfinished transfers, oldest first. Unlike the disk's
     single actuator, up to [queue_depth] programs are in flight at
     once, and a power cut tears each of them — in submission order, so
     the journal reconstruction can replay the same rng draws. *)
  mutable in_flight : (int * string) list;
  mutable powered : bool;
  journal : Journal.t option;
  journal_id : int;
}

let remove_in_flight state entry =
  state.in_flight <- List.filter (fun e -> e != entry) state.in_flight

let service_read state ~lba ~sectors =
  let started = Sim.now state.sim in
  Resource.Semaphore.acquire state.qd;
  Fun.protect ~finally:(fun () -> Resource.Semaphore.release state.qd)
  @@ fun () ->
  Process.sleep state.config.submit_overhead;
  Process.sleep
    (Time.ns (pages_of state.config sectors * Time.span_to_ns state.config.read_latency));
  let data = Block.Media.read state.media ~lba ~sectors in
  (data, Time.diff (Sim.now state.sim) started)

let service_write state ~lba ~data =
  let started = Sim.now state.sim in
  let sectors = String.length data / state.config.sector_size in
  Resource.Semaphore.acquire state.qd;
  Fun.protect ~finally:(fun () -> Resource.Semaphore.release state.qd)
  @@ fun () ->
  Process.sleep state.config.submit_overhead;
  let entry = (lba, data) in
  state.in_flight <- state.in_flight @ [ entry ];
  (match state.journal with
  | Some j -> Journal.write_start j state.sim ~device:state.journal_id ~lba ~sectors
  | None -> ());
  Process.sleep
    (Time.ns (pages_of state.config sectors * Time.span_to_ns state.config.program_latency));
  remove_in_flight state entry;
  if state.powered then begin
    Zones.note_write state.zones ~lba ~sectors;
    Block.Media.write state.media ~lba ~data;
    match state.journal with
    | Some j ->
        Journal.write_complete j state.sim ~device:state.journal_id ~lba ~sectors
          ~data
    | None -> ()
  end;
  Time.diff (Sim.now state.sim) started

(* Every in-flight program tears independently; the draws come off the
   device rng in submission order, which is what the crash sweep's
   reconstruction assumes when it replays multiple concurrent tears. *)
let power_cut state =
  state.powered <- false;
  let pending = state.in_flight in
  state.in_flight <- [];
  List.iter
    (fun (lba, data) -> Block.Media.write_torn state.media ~rng:state.rng ~lba ~data)
    pending

let create sim ?(model = "nvme-zns") config =
  assert (config.queue_depth > 0 && config.page_sectors > 0);
  assert (config.capacity_sectors > 0 && config.capacity_sectors mod config.zone_sectors = 0);
  let media =
    Block.Media.create ~sector_size:config.sector_size
      ~capacity_sectors:config.capacity_sectors
  in
  let rng = Rng.split (Sim.rng sim) in
  let journal = Journal.recording () in
  let journal_id =
    match journal with
    | Some j ->
        Journal.register_device j ~model ~sector_size:config.sector_size
          ~capacity_sectors:config.capacity_sectors ~rng
    | None -> -1
  in
  let zones = Zones.create config in
  let state =
    {
      sim;
      config;
      media;
      rng;
      qd = Resource.Semaphore.create sim config.queue_depth;
      zones;
      in_flight = [];
      powered = true;
      journal;
      journal_id;
    }
  in
  let stats = Disk_stats.create () in
  let instance = Disk_stats.instance_name model in
  let m_write =
    Option.map
      (fun reg -> Metrics.histogram reg ("device.write:" ^ instance))
      (Metrics.recording ())
  in
  let m_appends, m_rewinds =
    match Metrics.recording () with
    | Some reg ->
        ( Some (Metrics.counter reg ("device.zone_appends:" ^ instance)),
          Some (Metrics.counter reg ("device.zone_rewinds:" ^ instance)) )
    | None -> (None, None)
  in
  let sync_zone_counters () =
    (match m_appends with
    | Some c -> Metrics.Counter.add c (Zones.appends zones - Metrics.Counter.get c)
    | None -> ());
    match m_rewinds with
    | Some c -> Metrics.Counter.add c (Zones.rewinds zones - Metrics.Counter.get c)
    | None -> ()
  in
  let ops =
    {
      Block.op_read =
        (fun ~lba ~sectors ->
          let data, service = service_read state ~lba ~sectors in
          Disk_stats.record_read stats ~sectors ~service;
          data);
      op_write =
        (fun ~lba ~data ~fua:_ ->
          (* No volatile write cache in this model: completion implies
             the program finished, so FUA and plain writes coincide. *)
          let service = service_write state ~lba ~data in
          let sectors = String.length data / config.sector_size in
          (match m_write with
          | Some h -> Metrics.Histogram.observe_span h service
          | None -> ());
          sync_zone_counters ();
          Disk_stats.record_write stats ~sectors ~service);
      op_flush =
        (fun () ->
          Process.sleep config.submit_overhead;
          Disk_stats.record_flush stats ~service:config.submit_overhead);
      op_power_cut = (fun () -> power_cut state);
      op_durable_read_into = Block.Media.read_into media;
      op_durable_extent = (fun () -> Block.Media.extent media);
    }
  in
  Block.make ~journal_id
    ~info:
      {
        Block.model;
        sector_size = config.sector_size;
        capacity_sectors = config.capacity_sectors;
      }
    ~stats ~ops ()
