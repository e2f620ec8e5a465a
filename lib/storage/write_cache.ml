open Desim

type config = { capacity_bytes : int; admit_bandwidth : float }

let default = { capacity_bytes = 32 * 1024 * 1024; admit_bandwidth = 200e6 }

type entry = { gen : int; lba : int; data : string }

type state = {
  sim : Sim.t;
  config : config;
  device : Block.t;
  overlay : (int, int * string) Hashtbl.t;  (* sector -> (gen, contents) *)
  pending : entry Queue.t;
  mutable bytes : int;
  mutable next_gen : int;
  space_freed : Resource.Condition.t;
  drained : Resource.Condition.t;
  arrived : Resource.Condition.t;
  mutable powered : bool;
}

let sector_size state = (Block.info state.device).Block.sector_size

let copy_in_span state len =
  Time.span_of_float_sec (float_of_int len /. state.config.admit_bandwidth)

let insert state ~lba ~data =
  let gen = state.next_gen in
  state.next_gen <- gen + 1;
  let ss = sector_size state in
  for i = 0 to (String.length data / ss) - 1 do
    Hashtbl.replace state.overlay (lba + i) (gen, String.sub data (i * ss) ss)
  done;
  Queue.push { gen; lba; data } state.pending;
  state.bytes <- state.bytes + String.length data;
  Resource.Condition.signal state.arrived

let destage_batch_limit_bytes = 1024 * 1024

(* Merge the head run of overlapping-or-adjacent entries into one device
   write — a disk cache destages whole cache lines, it does not replay
   the host's write pattern (which here rewrites the same tail sector
   over and over, one rotation each). *)
let take_batch state head =
  let ss = sector_size state in
  let sectors data = String.length data / ss in
  let pieces = ref [ head ] in
  let base = head.lba in
  let end_lba = ref (base + sectors head.data) in
  let batch_bytes = ref (String.length head.data) in
  let continue = ref true in
  while !continue do
    match Queue.peek_opt state.pending with
    | Some entry
      when entry.lba >= base
           && entry.lba <= !end_lba
           && !batch_bytes + String.length entry.data <= destage_batch_limit_bytes ->
        ignore (Queue.pop state.pending);
        pieces := entry :: !pieces;
        end_lba := max !end_lba (entry.lba + sectors entry.data);
        batch_bytes := !batch_bytes + String.length entry.data
    | Some _ | None -> continue := false
  done;
  let merged = Bytes.make ((!end_lba - base) * ss) '\000' in
  List.iter
    (fun entry ->
      Bytes.blit_string entry.data 0 merged ((entry.lba - base) * ss)
        (String.length entry.data))
    (List.rev !pieces);
  (base, Bytes.unsafe_to_string merged, List.rev !pieces)

let destage_entries state entries =
  let ss = sector_size state in
  List.iter
    (fun entry ->
      for i = 0 to (String.length entry.data / ss) - 1 do
        match Hashtbl.find_opt state.overlay (entry.lba + i) with
        | Some (gen, _) when gen = entry.gen ->
            Hashtbl.remove state.overlay (entry.lba + i)
        | Some _ | None -> ()
      done;
      state.bytes <- state.bytes - String.length entry.data)
    entries;
  Resource.Condition.broadcast state.space_freed;
  if Queue.is_empty state.pending then Resource.Condition.broadcast state.drained

let destager state () =
  while state.powered do
    match Queue.take_opt state.pending with
    | Some head ->
        let lba, data, entries = take_batch state head in
        Block.write state.device ~lba data;
        if state.powered then destage_entries state entries
    | None -> Resource.Condition.wait state.arrived
  done

let cached_write state ~lba ~data =
  let len = String.length data in
  Process.sleep (copy_in_span state len);
  while state.bytes + len > state.config.capacity_bytes do
    Resource.Condition.wait state.space_freed
  done;
  if state.powered then insert state ~lba ~data

let cached_read state ~lba ~sectors =
  let base = Block.read state.device ~lba ~sectors in
  (* Newer cached sectors shadow the media contents. *)
  if Hashtbl.length state.overlay = 0 then base
  else begin
    let ss = sector_size state in
    let buf = Bytes.of_string base in
    for i = 0 to sectors - 1 do
      match Hashtbl.find_opt state.overlay (lba + i) with
      | Some (_, contents) -> Bytes.blit_string contents 0 buf (i * ss) ss
      | None -> ()
    done;
    Bytes.unsafe_to_string buf
  end

let cache_flush state =
  while not (Queue.is_empty state.pending) do
    Resource.Condition.wait state.drained
  done;
  Block.flush state.device

let power_cut state =
  state.powered <- false;
  Hashtbl.reset state.overlay;
  Queue.clear state.pending;
  state.bytes <- 0;
  Block.power_cut state.device

let wrap sim config device =
  assert (config.capacity_bytes > 0 && config.admit_bandwidth > 0.);
  let state =
    {
      sim;
      config;
      device;
      overlay = Hashtbl.create 1024;
      pending = Queue.create ();
      bytes = 0;
      next_gen = 0;
      space_freed = Resource.Condition.create sim;
      drained = Resource.Condition.create sim;
      arrived = Resource.Condition.create sim;
      powered = true;
    }
  in
  ignore (Process.spawn sim ~name:"write-cache-destager" (destager state));
  let stats = Disk_stats.create () in
  let ops =
    {
      Block.op_read =
        (fun ~lba ~sectors ->
          let started = Sim.now sim in
          let data = cached_read state ~lba ~sectors in
          Disk_stats.record_read stats ~sectors
            ~service:(Time.diff (Sim.now sim) started);
          data);
      op_write =
        (fun ~lba ~data ~fua ->
          let started = Sim.now sim in
          if fua then Block.write state.device ~fua:true ~lba data
          else cached_write state ~lba ~data;
          Disk_stats.record_write stats
            ~sectors:(String.length data / sector_size state)
            ~service:(Time.diff (Sim.now sim) started));
      op_flush =
        (fun () ->
          let started = Sim.now sim in
          cache_flush state;
          Disk_stats.record_flush stats ~service:(Time.diff (Sim.now sim) started));
      op_power_cut = (fun () -> power_cut state);
      op_durable_read_into = Block.durable_read_into device;
      op_durable_extent = (fun () -> Block.durable_extent device);
    }
  in
  let info = Block.info device in
  Block.make
    ~info:{ info with Block.model = info.Block.model ^ "+wcache" }
    ~stats ~ops ()
