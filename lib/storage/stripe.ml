open Desim

type t = {
  sim : Sim.t;
  members : Block.t array;
  chunk_sectors : int;
  sector_size : int;
}

type segment = { member : int; member_lba : int; global_off : int; sectors : int }

(* Split a global sector range into per-member segments at chunk
   boundaries. Pure in the geometry: the crash-surface journal
   reconstruction uses the same plan to map journaled volume-level
   submissions onto the member writes the run produced. *)
let plan ~members ~chunk_sectors ~lba ~sectors =
  assert (members > 0 && chunk_sectors > 0);
  let rec split lba remaining acc =
    if remaining = 0 then List.rev acc
    else begin
      let stripe = lba / chunk_sectors in
      let within = lba mod chunk_sectors in
      let here = min remaining (chunk_sectors - within) in
      let segment =
        {
          member = stripe mod members;
          member_lba = ((stripe / members) * chunk_sectors) + within;
          global_off = lba;
          sectors = here;
        }
      in
      split (lba + here) (remaining - here) (segment :: acc)
    end
  in
  split lba sectors []

(* The inverse of [plan]: a member write's sector ranges in the volume's
   address space, split at chunk boundaries. *)
let iter_global_ranges ~members ~chunk_sectors ~member ~lba ~sectors f =
  assert (members > 0 && chunk_sectors > 0);
  let l = ref lba and remaining = ref sectors in
  while !remaining > 0 do
    let within = !l mod chunk_sectors in
    let here = min !remaining (chunk_sectors - within) in
    f (((((!l / chunk_sectors) * members) + member) * chunk_sectors) + within) here;
    l := !l + here;
    remaining := !remaining - here
  done

let segments t ~lba ~sectors =
  plan ~members:(Array.length t.members) ~chunk_sectors:t.chunk_sectors ~lba
    ~sectors

(* Issue one operation per segment concurrently; blocks until all
   complete. *)
let fan_out t segs run_segment =
  match segs with
  | [] -> ()
  | [ only ] -> run_segment only
  | segs ->
      let latch = Resource.Latch.create t.sim (List.length segs) in
      List.iter
        (fun seg ->
          ignore
            (Process.spawn t.sim ~name:"stripe-io" (fun () ->
                 run_segment seg;
                 Resource.Latch.count_down latch)))
        segs;
      Resource.Latch.wait latch

let stripe_read t ~lba ~sectors =
  let buf = Bytes.make (sectors * t.sector_size) '\000' in
  let base = lba in
  fan_out t (segments t ~lba ~sectors) (fun seg ->
      let data =
        Block.read t.members.(seg.member) ~lba:seg.member_lba ~sectors:seg.sectors
      in
      Bytes.blit_string data 0 buf
        ((seg.global_off - base) * t.sector_size)
        (String.length data));
  Bytes.unsafe_to_string buf

let stripe_write t ~lba ~data ~fua =
  let base = lba in
  fan_out t
    (segments t ~lba ~sectors:(String.length data / t.sector_size))
    (fun seg ->
      let slice =
        String.sub data ((seg.global_off - base) * t.sector_size)
          (seg.sectors * t.sector_size)
      in
      Block.write t.members.(seg.member) ~fua ~lba:seg.member_lba slice)

let stripe_flush t =
  fan_out t
    (Array.to_list
       (Array.mapi
          (fun member _ -> { member; member_lba = 0; global_off = 0; sectors = 1 })
          t.members))
    (fun seg -> Block.flush t.members.(seg.member))

let durable_read t ~lba ~sectors =
  let buf = Bytes.make (sectors * t.sector_size) '\000' in
  List.iter
    (fun seg ->
      let data =
        Block.durable_read t.members.(seg.member) ~lba:seg.member_lba
          ~sectors:seg.sectors
      in
      Bytes.blit_string data 0 buf ((seg.global_off - lba) * t.sector_size)
        (String.length data))
    (segments t ~lba ~sectors);
  Bytes.unsafe_to_string buf

let durable_extent t =
  (* Conservative upper bound: if some member holds data through local
     stripe k, the volume may hold data through global stripe k*n+n-1. *)
  let n = Array.length t.members in
  Array.fold_left
    (fun acc member ->
      let local = Block.durable_extent member in
      let local_stripes = (local + t.chunk_sectors - 1) / t.chunk_sectors in
      max acc (local_stripes * n * t.chunk_sectors))
    0 t.members

let create sim ?(model = "stripe") ~chunk_sectors members =
  assert (Array.length members > 0 && chunk_sectors > 0);
  let sector_size = (Block.info members.(0)).Block.sector_size in
  Array.iter
    (fun member -> assert ((Block.info member).Block.sector_size = sector_size))
    members;
  let min_capacity =
    Array.fold_left
      (fun acc member -> min acc (Block.info member).Block.capacity_sectors)
      max_int members
  in
  let capacity =
    min_capacity / chunk_sectors * chunk_sectors * Array.length members
  in
  let t = { sim; members; chunk_sectors; sector_size } in
  let stats = Disk_stats.create () in
  (* Volume-level write service: the slowest member segment of the
     fan-out, as the caller sees it. *)
  let m_write =
    Option.map
      (fun reg -> Metrics.histogram reg ("stripe.write:" ^ model))
      (Metrics.recording ())
  in
  let ops =
    {
      Block.op_read =
        (fun ~lba ~sectors ->
          let started = Sim.now sim in
          let data = stripe_read t ~lba ~sectors in
          Disk_stats.record_read stats ~sectors
            ~service:(Time.diff (Sim.now sim) started);
          data);
      op_write =
        (fun ~lba ~data ~fua ->
          let started = Sim.now sim in
          stripe_write t ~lba ~data ~fua;
          let service = Time.diff (Sim.now sim) started in
          (match m_write with
          | Some h -> Metrics.Histogram.observe_span h service
          | None -> ());
          Disk_stats.record_write stats
            ~sectors:(String.length data / sector_size)
            ~service);
      op_flush =
        (fun () ->
          let started = Sim.now sim in
          stripe_flush t;
          Disk_stats.record_flush stats ~service:(Time.diff (Sim.now sim) started));
      op_power_cut = (fun () -> Array.iter Block.power_cut t.members);
      op_durable_read = (fun ~lba ~sectors -> durable_read t ~lba ~sectors);
      op_durable_extent = (fun () -> durable_extent t);
    }
  in
  Block.make
    ~info:
      {
        Block.model = Printf.sprintf "%s[%dx %s]" model (Array.length members)
            (Block.info members.(0)).Block.model;
        sector_size;
        capacity_sectors = capacity;
      }
    ~stats ~ops ()
