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
  mutable dirty : bool;  (* the heaps' view of [Page.is_dirty page] *)
  mutable pos : int;  (* index in the victim heap; -1 once evicted *)
  mutable dirty_pos : int;  (* index in the dirty heap; -1 when not in it *)
}

(* An indexed binary min-heap of slots. [victims] orders clean before
   dirty, then by stamp, and holds every cached slot; otherwise the
   heap orders by stamp and holds the cached dirty slots. *)
type heap = {
  victims : bool;
  mutable items : slot array;
  mutable len : int;
}

type t = {
  sim : Sim.t;
  config : config;
  device : Storage.Block.t;
  wal_force : page:int -> Lsn.t -> unit;
  slots : slot Int_table.t;  (* page id -> slot *)
  heap : heap;  (* every slot of [slots]; the root is the victim *)
  dirty_heap : heap;  (* the dirty slots of [slots]; the cleaner's batch *)
  vacant : slot;  (* fills the heaps past their length, so evicted pages are not kept alive *)
  allocated : unit Int_table.t;  (* page ids with an on-device image *)
  winner_parity : int Int_table.t;
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
  let vacant =
    { page = Page.create ~id:(-1); stamp = 0; dirty = false; pos = -1; dirty_pos = -1 }
  in
  let heap victims = { victims; items = Array.make config.capacity_pages vacant; len = 0 } in
  {
    sim;
    config;
    device;
    wal_force;
    slots = Int_table.create config.capacity_pages;
    heap = heap true;
    dirty_heap = heap false;
    vacant;
    allocated = Int_table.create 1024;
    winner_parity = Int_table.create 1024;
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

(* -- Heaps -----------------------------------------------------------

   Indexed binary min-heaps over the cached slots: each slot records its
   index in each heap, so a slot whose stamp or dirtiness changed moves
   in O(log capacity). The victim is the victim heap's root; the
   cleaner's batch is the dirty heap's smallest stamps. *)

let[@inline] before h a b =
  if h.victims && a.dirty <> b.dirty then b.dirty else a.stamp < b.stamp

let[@inline] pos h slot = if h.victims then slot.pos else slot.dirty_pos

let[@inline] place h i slot =
  Array.unsafe_set h.items i slot;
  if h.victims then slot.pos <- i else slot.dirty_pos <- i

let rec sift_up h i slot =
  if i = 0 then place h 0 slot
  else begin
    let parent = (i - 1) / 2 in
    let above = Array.unsafe_get h.items parent in
    if before h slot above then begin
      place h i above;
      sift_up h parent slot
    end
    else place h i slot
  end

let rec sift_down h i slot =
  let left = (2 * i) + 1 in
  if left >= h.len then place h i slot
  else begin
    let right = left + 1 in
    let child =
      if right < h.len
         && before h (Array.unsafe_get h.items right) (Array.unsafe_get h.items left)
      then right
      else left
    in
    let below = Array.unsafe_get h.items child in
    if before h below slot then begin
      place h i below;
      sift_down h child slot
    end
    else place h i slot
  end

let reposition h slot =
  let i = pos h slot in
  if i > 0 && before h slot (Array.unsafe_get h.items ((i - 1) / 2)) then
    sift_up h i slot
  else sift_down h i slot

let heap_push t h slot =
  if h.len = Array.length h.items then begin
    (* Only [install] overfills the pool (restart seeds every recovered
       page); misses evict first. *)
    let grown = Array.make (2 * h.len) t.vacant in
    Array.blit h.items 0 grown 0 h.len;
    h.items <- grown
  end;
  h.len <- h.len + 1;
  sift_up h (h.len - 1) slot

let heap_remove t h slot =
  let i = pos h slot in
  let last = h.len - 1 in
  let moved = h.items.(last) in
  h.items.(last) <- t.vacant;
  h.len <- last;
  if h.victims then slot.pos <- -1 else slot.dirty_pos <- -1;
  if i < last then begin
    place h i moved;
    reposition h moved
  end

(* The [limit] smallest stamps of the dirty heap, oldest first, without
   changing it: a best-first walk from the root over a frontier of heap
   indices, itself a small min-heap by stamp. Costs O(limit · log limit)
   whatever the pool's capacity. *)
let oldest_dirty t ~limit =
  let h = t.dirty_heap in
  let stamp i = (Array.unsafe_get h.items i).stamp in
  let frontier = Array.make ((2 * limit) + 1) 0 in
  let size = ref 0 in
  let push i =
    let rec up j =
      if j > 0 && stamp i < stamp frontier.((j - 1) / 2) then begin
        frontier.(j) <- frontier.((j - 1) / 2);
        up ((j - 1) / 2)
      end
      else frontier.(j) <- i
    in
    if i < h.len then begin
      incr size;
      up (!size - 1)
    end
  in
  let pop () =
    let top = frontier.(0) in
    decr size;
    let last = frontier.(!size) in
    let rec down j =
      let l = (2 * j) + 1 in
      if l >= !size then frontier.(j) <- last
      else begin
        let c = if l + 1 < !size && stamp frontier.(l + 1) < stamp frontier.(l) then l + 1 else l in
        if stamp frontier.(c) < stamp last then begin
          frontier.(j) <- frontier.(c);
          down c
        end
        else frontier.(j) <- last
      end
    in
    if !size > 0 then down 0;
    top
  in
  push 0;
  let rec take n acc =
    if n = limit || !size = 0 then List.rev acc
    else begin
      let i = pop () in
      push ((2 * i) + 1);
      push ((2 * i) + 2);
      take (n + 1) (h.items.(i) :: acc)
    end
  in
  take 0 []

let add_slot t page ~stamp =
  let slot = { page; stamp; dirty = Page.is_dirty page; pos = -1; dirty_pos = -1 } in
  Int_table.replace t.slots page.Page.id slot;
  heap_push t t.heap slot;
  if slot.dirty then heap_push t t.dirty_heap slot;
  slot

let remove_slot t slot =
  Int_table.remove t.slots slot.page.Page.id;
  heap_remove t t.heap slot;
  if slot.dirty_pos >= 0 then heap_remove t t.dirty_heap slot

(* Re-file a page after its dirtiness changed; pages no longer cached
   (evicted while a flush or an update was in flight) are not in the
   heaps. *)
let sync_dirty t page =
  match Int_table.find_opt t.slots page.Page.id with
  | Some slot when slot.page == page && slot.dirty <> Page.is_dirty page ->
      slot.dirty <- not slot.dirty;
      reposition t.heap slot;
      if slot.dirty then heap_push t t.dirty_heap slot
      else heap_remove t t.dirty_heap slot
  | Some _ | None -> ()

let touch t slot =
  t.clock <- t.clock + 1;
  slot.stamp <- t.clock;
  if slot.pos >= 0 then sift_down t.heap slot.pos slot;
  if slot.dirty_pos >= 0 then sift_down t.dirty_heap slot.dirty_pos slot

let flush_page_locked t page =
  if Page.is_dirty page then begin
    (* Snapshot first: updates racing with the force below must not leak
       into an image whose LSN the WAL has not covered. *)
    let image = Page.serialize page ~page_bytes:t.config.page_bytes in
    let snapshot_lsn = page.Page.page_lsn in
    t.wal_force ~page:page.Page.id snapshot_lsn;
    let target =
      match Int_table.find_opt t.winner_parity page.Page.id with
      | Some winner -> 1 - winner
      | None -> 0
    in
    Storage.Block.write t.device ~lba:(slot_lba t page.Page.id target) image;
    Int_table.replace t.winner_parity page.Page.id target;
    Int_table.replace t.allocated page.Page.id ();
    t.page_writes <- t.page_writes + 1;
    if Lsn.equal page.Page.page_lsn snapshot_lsn then page.Page.rec_lsn <- None
    else
      (* Updated while flushing: still dirty, and redo from the snapshot
         LSN is a safe (conservative) restart point. *)
      page.Page.rec_lsn <- Some snapshot_lsn;
    sync_dirty t page
  end

(* Oldest clean page if any; otherwise oldest dirty page, flushed on the
   way out. The page stays cached, and hittable, while that write is in
   flight; a hit that updates it leaves it dirty, so it stays, and the
   victim is picked again. *)
let rec evict_victim t =
  let slot = t.heap.items.(0) in
  flush_page_locked t slot.page;
  if Page.is_dirty slot.page then evict_victim t
  else begin
    remove_slot t slot;
    t.evictions <- t.evictions + 1
  end

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
  let on_device = Int_table.mem t.allocated id || lba < t.initial_extent in
  if not on_device then Page.create ~id
  else begin
    let spp = sectors_per_page t in
    let pair = Storage.Block.read t.device ~lba ~sectors:(slot_count * spp) in
    let image parity =
      (parity, String.sub pair (parity * t.config.page_bytes) t.config.page_bytes)
    in
    match pick_newest id [ image 0; image 1 ] with
    | Some (parity, page) ->
        Int_table.replace t.winner_parity id parity;
        page
    | None -> Page.create ~id
  end

let install t page ~dirty_at ~parity =
  page.Page.rec_lsn <- dirty_at;
  t.clock <- t.clock + 1;
  Option.iter (remove_slot t) (Int_table.find_opt t.slots page.Page.id);
  ignore (add_slot t page ~stamp:t.clock);
  (* Whether or not its image is current, the slot now exists on device
     once flushed; treating it as allocated means a later eviction+refetch
     reads the image instead of fabricating an empty page. *)
  Int_table.replace t.allocated page.Page.id ();
  match parity with
  | Some parity -> Int_table.replace t.winner_parity page.Page.id parity
  | None -> ()

let with_page t ~key f =
  let id = Page.page_of_key ~keys_per_page:t.config.keys_per_page key in
  let slot =
    match Int_table.find_opt t.slots id with
    | Some slot ->
        t.hits <- t.hits + 1;
        slot
    | None ->
        Resource.Mutex.with_lock t.fetch_mutex (fun () ->
            (* Another process may have fetched it while we waited. *)
            match Int_table.find_opt t.slots id with
            | Some slot ->
                t.hits <- t.hits + 1;
                slot
            | None ->
                t.misses <- t.misses + 1;
                let page = fetch t id in
                while Int_table.length t.slots >= t.config.capacity_pages do
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
  Int_table.fold
    (fun _ slot acc -> if Page.is_dirty slot.page then slot.page :: acc else acc)
    t.slots []

let flush_all t = List.iter (flush_page t) (dirty_pages t)

let min_rec_lsn t =
  Int_table.fold
    (fun _ slot acc ->
      match (slot.page.Page.rec_lsn, acc) with
      | None, acc -> acc
      | Some l, None -> Some l
      | Some l, Some best -> Some (Lsn.min l best))
    t.slots None

let cached_pages t = Int_table.length t.slots
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let page_writes t = t.page_writes
