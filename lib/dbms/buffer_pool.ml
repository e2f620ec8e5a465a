open Desim

type config = {
  capacity_pages : int;
  page_bytes : int;
  keys_per_page : int;
  data_start_lba : int;
}

let default_config =
  { capacity_pages = 512; page_bytes = 8192; keys_per_page = 16; data_start_lba = 0 }

type slot = {
  page : Page.t;
  mutable stamp : int;  (* last-use tick *)
  mutable dirty : bool;  (* the victim heap's view of [Page.is_dirty page] *)
  mutable pos : int;  (* index in the victim heap; -1 once evicted *)
}

type t = {
  sim : Sim.t;
  config : config;
  device : Storage.Block.t;
  wal_force : page:int -> Lsn.t -> unit;
  slots : (int, slot) Hashtbl.t;  (* page id -> slot *)
  mutable heap : slot array;
      (* Victim heap: every slot of [slots], a binary min-heap ordered
         clean before dirty, then by stamp — so the root is the victim. *)
  mutable heap_len : int;
  vacant : slot;  (* fills [heap] past [heap_len], so evicted pages are not kept alive *)
  allocated : (int, unit) Hashtbl.t;  (* page ids with an on-device image *)
  winner_parity : (int, int) Hashtbl.t;
      (* page id -> slot holding the newest intact image; flushes target
         the other slot so the newest image is never overwritten *)
  initial_extent : int;  (* device extent when the pool was created *)
  fetch_mutex : Resource.Mutex.t;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable page_writes : int;
}

let create sim config ~device ~wal_force =
  let ss = (Storage.Block.info device).Storage.Block.sector_size in
  assert (config.page_bytes mod ss = 0);
  assert (config.capacity_pages > 0 && config.keys_per_page > 0);
  let vacant = { page = Page.create ~id:(-1); stamp = 0; dirty = false; pos = -1 } in
  {
    sim;
    config;
    device;
    wal_force;
    slots = Hashtbl.create config.capacity_pages;
    heap = Array.make config.capacity_pages vacant;
    heap_len = 0;
    vacant;
    allocated = Hashtbl.create 1024;
    winner_parity = Hashtbl.create 1024;
    initial_extent = Storage.Block.durable_extent device;
    fetch_mutex = Resource.Mutex.create sim;
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    page_writes = 0;
  }

let config t = t.config
let slot_count = 2

let lba_of_page config ~sector_size id =
  config.data_start_lba + (id * slot_count * (config.page_bytes / sector_size))

let sector_size t = (Storage.Block.info t.device).Storage.Block.sector_size
let sectors_per_page t = t.config.page_bytes / sector_size t

let slot_lba t id parity =
  lba_of_page t.config ~sector_size:(sector_size t) id
  + (parity * sectors_per_page t)

(* -- Victim heap -------------------------------------------------------

   Indexed binary min-heap over the cached slots: each slot records its
   index, so a slot whose stamp or dirtiness changed moves in
   O(log capacity), and the victim is read off the root. *)

let[@inline] before a b = if a.dirty <> b.dirty then b.dirty else a.stamp < b.stamp

let[@inline] place t i slot =
  Array.unsafe_set t.heap i slot;
  slot.pos <- i

let rec sift_up t i slot =
  if i = 0 then place t 0 slot
  else begin
    let parent = (i - 1) / 2 in
    let above = Array.unsafe_get t.heap parent in
    if before slot above then begin
      place t i above;
      sift_up t parent slot
    end
    else place t i slot
  end

let rec sift_down t i slot =
  let left = (2 * i) + 1 in
  if left >= t.heap_len then place t i slot
  else begin
    let right = left + 1 in
    let child =
      if right < t.heap_len
         && before (Array.unsafe_get t.heap right) (Array.unsafe_get t.heap left)
      then right
      else left
    in
    let below = Array.unsafe_get t.heap child in
    if before below slot then begin
      place t i below;
      sift_down t child slot
    end
    else place t i slot
  end

let reposition t slot =
  let i = slot.pos in
  if i > 0 && before slot (Array.unsafe_get t.heap ((i - 1) / 2)) then sift_up t i slot
  else sift_down t i slot

let heap_push t slot =
  if t.heap_len = Array.length t.heap then begin
    (* Only [install] overfills the pool (restart seeds every recovered
       page); misses evict first. *)
    let grown = Array.make (2 * t.heap_len) t.vacant in
    Array.blit t.heap 0 grown 0 t.heap_len;
    t.heap <- grown
  end;
  t.heap_len <- t.heap_len + 1;
  sift_up t (t.heap_len - 1) slot

let heap_remove t slot =
  let i = slot.pos in
  let last = t.heap_len - 1 in
  let moved = t.heap.(last) in
  t.heap.(last) <- t.vacant;
  t.heap_len <- last;
  slot.pos <- -1;
  if i < last then begin
    place t i moved;
    reposition t moved
  end

let add_slot t page ~stamp =
  let slot = { page; stamp; dirty = Page.is_dirty page; pos = -1 } in
  Hashtbl.replace t.slots page.Page.id slot;
  heap_push t slot;
  slot

(* Re-file a page after its dirtiness changed; pages no longer cached
   (evicted while a flush or an update was in flight) are not in the
   heap. *)
let sync_dirty t page =
  match Hashtbl.find_opt t.slots page.Page.id with
  | Some slot when slot.page == page && slot.dirty <> Page.is_dirty page ->
      slot.dirty <- not slot.dirty;
      reposition t slot
  | Some _ | None -> ()

let touch t slot =
  t.clock <- t.clock + 1;
  slot.stamp <- t.clock;
  if slot.pos >= 0 then sift_down t slot.pos slot

let flush_page_locked t page =
  if Page.is_dirty page then begin
    (* Snapshot first: updates racing with the force below must not leak
       into an image whose LSN the WAL has not covered. *)
    let image = Page.serialize page ~page_bytes:t.config.page_bytes in
    let snapshot_lsn = page.Page.page_lsn in
    t.wal_force ~page:page.Page.id snapshot_lsn;
    let target =
      match Hashtbl.find_opt t.winner_parity page.Page.id with
      | Some winner -> 1 - winner
      | None -> 0
    in
    Storage.Block.write t.device ~lba:(slot_lba t page.Page.id target) image;
    Hashtbl.replace t.winner_parity page.Page.id target;
    Hashtbl.replace t.allocated page.Page.id ();
    t.page_writes <- t.page_writes + 1;
    if Lsn.equal page.Page.page_lsn snapshot_lsn then page.Page.rec_lsn <- None
    else
      (* Updated while flushing: still dirty, and redo from the snapshot
         LSN is a safe (conservative) restart point. *)
      page.Page.rec_lsn <- Some snapshot_lsn;
    sync_dirty t page
  end

let evict_victim t =
  (* Oldest clean page if any; otherwise oldest dirty page, flushed on the
     way out. *)
  let slot = t.heap.(0) in
  flush_page_locked t slot.page;
  Hashtbl.remove t.slots slot.page.Page.id;
  heap_remove t slot;
  t.evictions <- t.evictions + 1

(* Pick the newest intact image of the two slot copies; [None] if
   neither parses. *)
let pick_newest id = function
  | [] -> None
  | images ->
      List.fold_left
        (fun best (parity, image) ->
          match Page.deserialize image with
          | Some page when page.Page.id = id -> (
              match best with
              | Some (_, chosen) when Lsn.(page.Page.page_lsn <= chosen.Page.page_lsn)
                ->
                  best
              | Some _ | None -> Some (parity, page))
          | Some _ | None -> best)
        None images

let fetch t id =
  let lba = lba_of_page t.config ~sector_size:(sector_size t) id in
  (* Only slots with an on-device image are read: pages this pool wrote
     back, plus anything on the device before the pool existed. A slot
     never written is a fresh allocation — real engines extend the file
     and materialise an empty page without I/O. *)
  let on_device = Hashtbl.mem t.allocated id || lba < t.initial_extent in
  if not on_device then Page.create ~id
  else begin
    let spp = sectors_per_page t in
    let pair = Storage.Block.read t.device ~lba ~sectors:(slot_count * spp) in
    let image parity =
      (parity, String.sub pair (parity * t.config.page_bytes) t.config.page_bytes)
    in
    match pick_newest id [ image 0; image 1 ] with
    | Some (parity, page) ->
        Hashtbl.replace t.winner_parity id parity;
        page
    | None -> Page.create ~id
  end

let install t page ~dirty_at ~parity =
  page.Page.rec_lsn <- dirty_at;
  t.clock <- t.clock + 1;
  Option.iter (heap_remove t) (Hashtbl.find_opt t.slots page.Page.id);
  ignore (add_slot t page ~stamp:t.clock);
  (* Whether or not its image is current, the slot now exists on device
     once flushed; treating it as allocated means a later eviction+refetch
     reads the image instead of fabricating an empty page. *)
  Hashtbl.replace t.allocated page.Page.id ();
  match parity with
  | Some parity -> Hashtbl.replace t.winner_parity page.Page.id parity
  | None -> ()

let with_page t ~key f =
  let id = Page.page_of_key ~keys_per_page:t.config.keys_per_page key in
  let slot =
    match Hashtbl.find_opt t.slots id with
    | Some slot ->
        t.hits <- t.hits + 1;
        slot
    | None ->
        Resource.Mutex.with_lock t.fetch_mutex (fun () ->
            (* Another process may have fetched it while we waited. *)
            match Hashtbl.find_opt t.slots id with
            | Some slot ->
                t.hits <- t.hits + 1;
                slot
            | None ->
                t.misses <- t.misses + 1;
                let page = fetch t id in
                while Hashtbl.length t.slots >= t.config.capacity_pages do
                  evict_victim t
                done;
                add_slot t page ~stamp:0)
  in
  touch t slot;
  f slot.page

let mark_dirty t page ~lsn =
  match page.Page.rec_lsn with
  | None ->
      page.Page.rec_lsn <- Some lsn;
      sync_dirty t page
  | Some _ -> ()

let flush_page t page = flush_page_locked t page

let oldest_dirty t ~limit =
  let dirty =
    Hashtbl.fold
      (fun _ slot acc -> if Page.is_dirty slot.page then slot :: acc else acc)
      t.slots []
  in
  let by_age = List.sort (fun a b -> Int.compare a.stamp b.stamp) dirty in
  List.filteri (fun i _ -> i < limit) by_age

let clean t ~batch =
  List.iter (fun slot -> flush_page_locked t slot.page) (oldest_dirty t ~limit:batch)

let spawn_cleaner t domain ~interval ~batch =
  assert (Time.compare_span interval Time.zero_span > 0 && batch > 0);
  Hypervisor.Domain.spawn domain ~name:"bgwriter" (fun () ->
      while true do
        Process.sleep interval;
        clean t ~batch
      done)

let dirty_pages t =
  Hashtbl.fold
    (fun _ slot acc -> if Page.is_dirty slot.page then slot.page :: acc else acc)
    t.slots []

let flush_all t = List.iter (flush_page t) (dirty_pages t)

let min_rec_lsn t =
  Hashtbl.fold
    (fun _ slot acc ->
      match (slot.page.Page.rec_lsn, acc) with
      | None, acc -> acc
      | Some l, None -> Some l
      | Some l, Some best -> Some (Lsn.min l best))
    t.slots None

let cached_pages t = Hashtbl.length t.slots
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let page_writes t = t.page_writes
