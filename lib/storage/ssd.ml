open Desim

type config = {
  page_sectors : int;
  read_latency : Time.span;
  program_latency : Time.span;
  channels : int;
  command_overhead : Time.span;
  capacity_sectors : int;
  sector_size : int;
}

let default =
  {
    page_sectors = 8;
    read_latency = Time.us 60;
    program_latency = Time.us 300;
    channels = 4;
    command_overhead = Time.us 20;
    capacity_sectors = 268_435_456;  (* 128 GiB of 512-byte sectors *)
    sector_size = 512;
  }

type state = {
  config : config;
  media : Block.Media.t;
  rng : Rng.t;
  lanes : Resource.Semaphore.t;
  mutable in_flight : (int * string) option;
  mutable powered : bool;
  journal : Journal.t option;
  journal_id : int;
}

let pages_of state sectors = (sectors + state.config.page_sectors - 1) / state.config.page_sectors

let rounds state pages = (pages + state.config.channels - 1) / state.config.channels

let service state ~per_page ~sectors body =
  Resource.Semaphore.acquire state.lanes;
  Fun.protect ~finally:(fun () -> Resource.Semaphore.release state.lanes)
  @@ fun () ->
  Process.sleep state.config.command_overhead;
  let span = Time.mul_span per_page (rounds state (pages_of state sectors)) in
  body span

let power_cut state =
  state.powered <- false;
  match state.in_flight with
  | Some (lba, data) ->
      state.in_flight <- None;
      Block.Media.write_torn state.media ~rng:state.rng ~lba ~data
  | None -> ()

let create sim ?(model = "ssd") config =
  assert (config.channels > 0 && config.page_sectors > 0);
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
  let state =
    {
      config;
      media;
      rng;
      lanes = Resource.Semaphore.create sim config.channels;
      in_flight = None;
      powered = true;
      journal;
      journal_id;
    }
  in
  let stats = Disk_stats.create () in
  let m_write =
    Option.map
      (fun reg ->
        Metrics.histogram reg ("device.write:" ^ Disk_stats.instance_name model))
      (Metrics.recording ())
  in
  let timed_read ~lba ~sectors =
    let started = Sim.now sim in
    let data =
      service state ~per_page:config.read_latency ~sectors (fun span ->
          Process.sleep span;
          Block.Media.read media ~lba ~sectors)
    in
    Disk_stats.record_read stats ~sectors ~service:(Time.diff (Sim.now sim) started);
    data
  in
  let timed_write ~lba ~data ~fua:_ =
    let started = Sim.now sim in
    let sectors = String.length data / config.sector_size in
    service state ~per_page:config.program_latency ~sectors (fun span ->
        state.in_flight <- Some (lba, data);
        (match state.journal with
        | Some j ->
            Journal.write_start j sim ~device:state.journal_id ~lba ~sectors
        | None -> ());
        Process.sleep span;
        state.in_flight <- None;
        if state.powered then begin
          Block.Media.write media ~lba ~data;
          match state.journal with
          | Some j ->
              Journal.write_complete j sim ~device:state.journal_id ~lba ~sectors
                ~data
          | None -> ()
        end);
    let service = Time.diff (Sim.now sim) started in
    (match m_write with
    | Some h -> Metrics.Histogram.observe_span h service
    | None -> ());
    Disk_stats.record_write stats ~sectors ~service
  in
  let ops =
    {
      Block.op_read = timed_read;
      op_write = timed_write;
      op_flush =
        (fun () ->
          Process.sleep config.command_overhead;
          Disk_stats.record_flush stats ~service:config.command_overhead);
      op_power_cut = (fun () -> power_cut state);
      op_durable_read_into = Block.Media.read_into media;
      op_durable_extent = (fun () -> Block.Media.extent media);
    }
  in
  Block.make ~journal_id:state.journal_id
    ~info:
      {
        Block.model;
        sector_size = config.sector_size;
        capacity_sectors = config.capacity_sectors;
      }
    ~stats ~ops ()
