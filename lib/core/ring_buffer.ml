type entry = { lba : int; data : string }

(* Entries live in two parallel circular arrays (unboxed ints for the
   LBAs, strings for the payloads) instead of a [Queue.t] of records:
   pushing writes two slots, popping reads them back, and nothing else
   is allocated. Capacity is kept a power of two so the circular index
   is a mask. *)
type t = {
  sector_size : int;
  capacity_bytes : int;
  mutable lbas : int array;
  mutable datas : string array;
  mutable stamps : int array;  (* caller-supplied push stamps (ns) *)
  (* [pop_coalesced]'s per-scan scratch, one slot per ring slot and
     grown with the ring, so a pop allocates nothing per queued entry. *)
  mutable take : bool array;
  mutable skip_lo : int array;
  mutable skip_hi : int array;
  mutable head : int;     (* index of the oldest entry *)
  mutable count : int;
  mutable bytes : int;
  mutable pushed : int;
  mutable popped : int;
  mutable max_bytes : int;
  mutable push_count : int;
}

let initial_slots = 64

let create ~sector_size ~capacity_bytes =
  assert (sector_size > 0 && capacity_bytes >= sector_size);
  {
    sector_size;
    capacity_bytes;
    lbas = Array.make initial_slots 0;
    datas = Array.make initial_slots "";
    stamps = Array.make initial_slots 0;
    take = Array.make initial_slots false;
    skip_lo = Array.make initial_slots 0;
    skip_hi = Array.make initial_slots 0;
    head = 0;
    count = 0;
    bytes = 0;
    pushed = 0;
    popped = 0;
    max_bytes = 0;
    push_count = 0;
  }

let bytes_used t = t.bytes
let length t = t.count
let is_empty t = t.count = 0
let fits t n = t.bytes + n <= t.capacity_bytes

let slot t i = (t.head + i) land (Array.length t.lbas - 1)

let grow t =
  let cap = Array.length t.lbas in
  let lbas = Array.make (2 * cap) 0 in
  let datas = Array.make (2 * cap) "" in
  let stamps = Array.make (2 * cap) 0 in
  for i = 0 to t.count - 1 do
    let j = slot t i in
    lbas.(i) <- t.lbas.(j);
    datas.(i) <- t.datas.(j);
    stamps.(i) <- t.stamps.(j)
  done;
  t.lbas <- lbas;
  t.datas <- datas;
  t.stamps <- stamps;
  t.take <- Array.make (2 * cap) false;
  t.skip_lo <- Array.make (2 * cap) 0;
  t.skip_hi <- Array.make (2 * cap) 0;
  t.head <- 0

let try_push ?(stamp = 0) t ~lba ~data =
  let len = String.length data in
  assert (len > 0 && len mod t.sector_size = 0);
  if not (fits t len) then false
  else begin
    if t.count = Array.length t.lbas then grow t;
    let j = slot t t.count in
    t.lbas.(j) <- lba;
    t.datas.(j) <- data;
    t.stamps.(j) <- stamp;
    t.count <- t.count + 1;
    t.bytes <- t.bytes + len;
    t.pushed <- t.pushed + len;
    t.push_count <- t.push_count + 1;
    if t.bytes > t.max_bytes then t.max_bytes <- t.bytes;
    true
  end

(* Drop the oldest entry, clearing its slot so the string is not
   retained by the ring after it leaves. *)
let drop_head t =
  let j = t.head in
  let len = String.length t.datas.(j) in
  t.datas.(j) <- "";
  t.head <- (j + 1) land (Array.length t.lbas - 1);
  t.count <- t.count - 1;
  t.bytes <- t.bytes - len;
  t.popped <- t.popped + len

let head_stamp t = if t.count = 0 then 0 else t.stamps.(t.head)

let pop t =
  if t.count = 0 then None
  else begin
    let j = t.head in
    let e = { lba = t.lbas.(j); data = t.datas.(j) } in
    drop_head t;
    Some e
  end

let sectors t data = String.length data / t.sector_size

(* Coalescing works directly on the circular arrays: one scan decides
   which entries merge and the extent of the merged write, then the
   batch is blitted straight into the result buffer.

   The scan is region-aware: an entry whose LBA falls outside the
   accumulated run belongs to a different log region (with S parallel
   WAL streams the guest's writes interleave S regions spaced far
   apart), so it is skipped — not a barrier — and the run keeps
   growing behind it. Without this, interleaved streams defeat
   coalescing entirely and every drained entry pays a full seek.

   Skipping must never reorder writes to the same sectors: a later
   entry is only taken if it overlaps no skipped entry's extent
   (tracked in [skip_lo]/[skip_hi]), so per-sector write order — and
   with it each stream's prefix order, which recovery depends on — is
   preserved. An in-run entry that exceeds [max_bytes] still stops the
   scan, as before. *)
let pop_coalesced t ~max_bytes =
  if t.count = 0 then None
  else begin
    let base = t.lbas.(t.head) in
    let end_lba = ref (base + sectors t t.datas.(t.head)) in
    let batch_bytes = ref (String.length t.datas.(t.head)) in
    let take = t.take and skip_lo = t.skip_lo and skip_hi = t.skip_hi in
    Array.fill take 0 t.count false;
    take.(0) <- true;
    let n = ref 1 in
    let contiguous = ref true in
    let skips = ref 0 in
    let overlaps_skipped lba stop =
      let hit = ref false in
      for k = 0 to !skips - 1 do
        if lba < skip_hi.(k) && skip_lo.(k) < stop then hit := true
      done;
      !hit
    in
    (try
       for i = 1 to t.count - 1 do
         let j = slot t i in
         let lba = t.lbas.(j) and len = String.length t.datas.(j) in
         let stop = lba + (len / t.sector_size) in
         if lba >= base && lba <= !end_lba && not (overlaps_skipped lba stop)
         then
           if !batch_bytes + len <= max_bytes then begin
             end_lba := max !end_lba stop;
             batch_bytes := !batch_bytes + len;
             take.(i) <- true;
             if i <> !n then contiguous := false;
             incr n
           end
           else raise Exit
         else begin
           skip_lo.(!skips) <- lba;
           skip_hi.(!skips) <- stop;
           incr skips
         end
       done
     with Exit -> ());
    let merged = Bytes.make ((!end_lba - base) * t.sector_size) '\000' in
    if !contiguous then
      (* The batch is a queue prefix (always the case with one stream):
         drop heads as before. *)
      for _ = 1 to !n do
        let j = t.head in
        let data = t.datas.(j) in
        Bytes.blit_string data 0 merged
          ((t.lbas.(j) - base) * t.sector_size)
          (String.length data);
        drop_head t
      done
    else begin
      (* Selected entries are interleaved with survivors from other
         regions: blit the batch in queue order, then compact the
         survivors toward the head, preserving their order. *)
      let kept = ref 0 in
      let total = t.count in
      for i = 0 to total - 1 do
        let j = slot t i in
        if take.(i) then begin
          let data = t.datas.(j) in
          Bytes.blit_string data 0 merged
            ((t.lbas.(j) - base) * t.sector_size)
            (String.length data);
          t.bytes <- t.bytes - String.length data;
          t.popped <- t.popped + String.length data
        end
        else begin
          let dst = slot t !kept in
          t.lbas.(dst) <- t.lbas.(j);
          t.datas.(dst) <- t.datas.(j);
          t.stamps.(dst) <- t.stamps.(j);
          incr kept
        end
      done;
      for i = !kept to total - 1 do
        t.datas.(slot t i) <- ""
      done;
      t.count <- !kept
    end;
    Some { lba = base; data = Bytes.unsafe_to_string merged }
  end

let copy t =
  let slots = Array.length t.lbas in
  {
    t with
    lbas = Array.copy t.lbas;
    datas = Array.copy t.datas;
    stamps = Array.copy t.stamps;
    take = Array.make slots false;
    skip_lo = Array.make slots 0;
    skip_hi = Array.make slots 0;
  }

let pushed_bytes t = t.pushed
let popped_bytes t = t.popped
let max_bytes_used t = t.max_bytes
let pushes t = t.push_count
