open Desim

type config = {
  rpm : int;
  sectors_per_track : int;
  tracks : int;
  seek_settle : Time.span;
  seek_full_stroke : Time.span;
  command_overhead : Time.span;
  sector_size : int;
}

let default_7200rpm =
  {
    rpm = 7200;
    sectors_per_track = 1000;
    tracks = 262144;
    seek_settle = Time.us 500;
    seek_full_stroke = Time.ms 8;
    command_overhead = Time.us 30;
    sector_size = 512;
  }

let config_with_rpm config rpm = { config with rpm }

let rotation_period config = Time.ns (60_000_000_000 / config.rpm)

type state = {
  sim : Sim.t;
  config : config;
  media : Block.Media.t;
  rng : Rng.t;
  actuator : Resource.Semaphore.t;
  mutable head_track : int;
  mutable in_flight : (int * string) option;  (* lba, data *)
  mutable powered : bool;
  journal : Journal.t option;
  journal_id : int;
}

let period_ns config = Time.span_to_ns (rotation_period config)

let sector_time_ns config = period_ns config / config.sectors_per_track

(* The timing helpers below are pure in the drive geometry, the clock
   and the head position. The live request path uses them through
   {!position}/{!transfer_span}; the crash sweep's journal
   reconstruction uses the same functions through {!write_timeline} to
   re-derive, without re-running the simulation, exactly when a drained
   log write would start transferring and complete — so the two paths
   cannot drift apart. *)

let seek_span config distance =
  if distance = 0 then Time.zero_span
  else
    let frac = sqrt (float_of_int distance /. float_of_int config.tracks) in
    Time.add_span config.seek_settle (Time.scale_span config.seek_full_stroke frac)

(* Time until the start of [target_sector]'s angular position passes under
   the head, given the platter position implied by the clock [now_ns]. *)
let rotational_wait_ns config ~now_ns target_sector =
  let period = period_ns config in
  let target_angle_ns =
    target_sector mod config.sectors_per_track * sector_time_ns config
  in
  let now_angle_ns = now_ns mod period in
  (target_angle_ns - now_angle_ns + period) mod period

(* The controller overhead is pipelined with the rotational wait (never
   under it): a request that lands exactly where the head is pays only
   the overhead — this is the drive's track buffer absorbing command
   latency, and it is what lets back-to-back sequential writes run at
   close to the media rate. *)
let position_wait_ns config ~now_ns ~head_track lba =
  let track = lba / config.sectors_per_track in
  let seek_ns = Time.span_to_ns (seek_span config (abs (track - head_track))) in
  let rot = rotational_wait_ns config ~now_ns:(now_ns + seek_ns) lba in
  let overhead = Time.span_to_ns config.command_overhead in
  (track, seek_ns, if rot >= overhead then rot else overhead)

type timeline = { wt_start_ns : int; wt_complete_ns : int; wt_track : int }

let track_of_lba config lba = lba / config.sectors_per_track

let write_timeline config ~now_ns ~head_track ~lba ~sectors =
  let track, seek_ns, wait_ns = position_wait_ns config ~now_ns ~head_track lba in
  let start_ns = now_ns + seek_ns + wait_ns in
  {
    wt_start_ns = start_ns;
    wt_complete_ns = start_ns + (sectors * sector_time_ns config);
    wt_track = track;
  }

(* Seek, then wait for the target sector. [position_wait_ns] already
   evaluates the rotational phase at the post-seek instant, so both
   sleeps are known up front. *)
let position state lba =
  let track, seek_ns, wait_ns =
    position_wait_ns state.config
      ~now_ns:(Time.to_ns (Sim.now state.sim))
      ~head_track:state.head_track lba
  in
  Process.sleep (Time.ns seek_ns);
  state.head_track <- track;
  Process.sleep (Time.ns wait_ns)

let transfer_span state sectors =
  Time.ns (sectors * sector_time_ns state.config)

let service_read state ~lba ~sectors =
  let started = Sim.now state.sim in
  Resource.Semaphore.acquire state.actuator;
  Fun.protect ~finally:(fun () -> Resource.Semaphore.release state.actuator)
  @@ fun () ->
  position state lba;
  Process.sleep (transfer_span state sectors);
  let data = Block.Media.read state.media ~lba ~sectors in
  (data, Time.diff (Sim.now state.sim) started)

let service_write state ~lba ~data =
  let started = Sim.now state.sim in
  let sectors = String.length data / state.config.sector_size in
  Resource.Semaphore.acquire state.actuator;
  Fun.protect ~finally:(fun () -> Resource.Semaphore.release state.actuator)
  @@ fun () ->
  position state lba;
  state.in_flight <- Some (lba, data);
  (match state.journal with
  | Some j -> Journal.write_start j state.sim ~device:state.journal_id ~lba ~sectors
  | None -> ());
  Process.sleep (transfer_span state sectors);
  state.in_flight <- None;
  if state.powered then begin
    Block.Media.write state.media ~lba ~data;
    match state.journal with
    | Some j ->
        Journal.write_complete j state.sim ~device:state.journal_id ~lba ~sectors
          ~data
    | None -> ()
  end;
  Time.diff (Sim.now state.sim) started

let power_cut state =
  state.powered <- false;
  match state.in_flight with
  | Some (lba, data) ->
      state.in_flight <- None;
      Block.Media.write_torn state.media ~rng:state.rng ~lba ~data
  | None -> ()

let create sim ?(model = "hdd-7200") config =
  assert (config.rpm > 0 && config.sectors_per_track > 0 && config.tracks > 0);
  let media =
    Block.Media.create ~sector_size:config.sector_size
      ~capacity_sectors:(config.tracks * config.sectors_per_track)
  in
  let rng = Rng.split (Sim.rng sim) in
  let journal = Journal.recording () in
  let journal_id =
    match journal with
    | Some j ->
        Journal.register_device j ~model ~sector_size:config.sector_size
          ~capacity_sectors:(config.tracks * config.sectors_per_track) ~rng
    | None -> -1
  in
  let state =
    {
      sim;
      config;
      media;
      rng;
      actuator = Resource.Semaphore.create sim 1;
      head_track = 0;
      in_flight = None;
      powered = true;
      journal;
      journal_id;
    }
  in
  let stats = Disk_stats.create () in
  (* Physical write service (seek + rotation + transfer), per device
     model — the bottom of every commit-path breakdown. *)
  let m_write =
    Option.map
      (fun reg ->
        Metrics.histogram reg ("device.write:" ^ Disk_stats.instance_name model))
      (Metrics.recording ())
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
          (* No volatile cache here, so FUA and plain writes coincide;
             a cache is added by wrapping with {!Write_cache}. *)
          let service = service_write state ~lba ~data in
          let sectors = String.length data / config.sector_size in
          (match m_write with
          | Some h -> Metrics.Histogram.observe_span h service
          | None -> ());
          Disk_stats.record_write stats ~sectors ~service);
      op_flush =
        (fun () ->
          Process.sleep config.command_overhead;
          Disk_stats.record_flush stats ~service:config.command_overhead);
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
        capacity_sectors = config.tracks * config.sectors_per_track;
      }
    ~stats ~ops ()
