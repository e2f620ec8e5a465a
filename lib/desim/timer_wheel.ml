(* Hierarchical timer wheel: the O(1)-amortised event queue behind
   [Event_queue] since PR 8.

   Layout. Four levels of 256 slots each; level [l]'s slot for an event
   at absolute nanosecond [t] is byte [l] of [t] (bits 8l..8l+7). Level
   0 therefore resolves single nanoseconds: one slot holds events for
   exactly one instant, so a FIFO list per slot reproduces the (time,
   sequence) tie-break for free — same-instant events pop in insertion
   order. Together the levels cover a 2^32 ns (~4.3 s) window around the
   wheel's clock; anything that differs from the clock above bit 31
   (far-future events, or any event scheduled across a 2^32 ns epoch
   boundary) parks in a [Binary_heap] overflow keyed by the same global
   sequence counter, and [pop] compares the wheel head against the
   overflow head on (time, seq), so order is exact across both stores.

   Placement. [cur] is the wheel clock, a lower bound on every queued
   time (it trails the last popped time). An event goes to the level of
   the highest byte in which its time differs from [cur] —
   [level_of (t lxor cur)]. Events in the current 256 ns window land in
   level 0 directly; coarser events land higher and are {e cascaded}
   down lazily: when a pop finds levels [0..l-1] empty, the lowest
   occupied slot of level [l] is the earliest pending window; [cur]
   jumps to that window's base and the slot's events redistribute (each
   strictly downward, so location terminates). Cascading a slot moves
   each of its nodes once, so an event is touched at most [levels]
   times between add and pop — amortised O(1) against the heap's
   O(log n) sift per operation.

   Storage. Slot lists are intrusive: nodes live in parallel unboxed
   arrays (time, seq, next) plus a payload array, chained through a free
   list, so steady-state add/pop allocate nothing. Slot occupancy is a
   bitmap per level (eight 32-bit words), scanned with
   find-lowest-set-bit, so "earliest occupied slot" costs a handful of
   word tests rather than a 256-slot walk.

   Contract. Adds must be monotone: [add ~time] requires [time] at or
   after the last popped time ([Invalid_argument] otherwise). [Sim]
   guarantees this — [schedule_at] asserts the target is not in the
   simulation's past — and it is what lets slot arithmetic drop absolute
   epochs. [Binary_heap] remains the backend of choice for order-free
   insertion patterns. *)

let log_w = 8
let w = 1 lsl log_w (* 256 slots per level *)
let levels = 4
let words = w / 32 (* occupancy words per level *)
let wheel_span = 1 lsl (log_w * levels) (* 2^32 ns covered by the wheel *)

type 'a t = {
  (* node pool: intrusive lists over parallel arrays *)
  mutable n_times : int array;
  mutable n_seqs : int array;
  mutable n_next : int array; (* next node in slot list or free list; -1 = end *)
  mutable n_payloads : 'a array;
  mutable free : int; (* head of the free list; -1 = pool exhausted *)
  mutable dummy : 'a array;
      (* one arbitrary payload once the pool exists; freed slots are
         overwritten with it so popped closures are not retained *)
  (* slots: [levels * w] list heads/tails, node index or -1 *)
  heads : int array;
  tails : int array;
  occ : int array; (* levels * words bitmap words, 32 slots each *)
  mutable cur : int; (* wheel clock: lower bound on every queued time *)
  mutable wheel_size : int; (* events in wheel slots (excludes overflow) *)
  overflow : 'a Binary_heap.t;
  mutable next_seq : int; (* one counter across wheel and overflow *)
  mutable max_size : int;
  mutable min_slot : int;
      (* cached level-0 slot of the wheel minimum; -1 = recompute *)
}

let create () =
  {
    n_times = [||];
    n_seqs = [||];
    n_next = [||];
    n_payloads = [||];
    free = -1;
    dummy = [||];
    heads = Array.make (levels * w) (-1);
    tails = Array.make (levels * w) (-1);
    occ = Array.make (levels * words) 0;
    cur = 0;
    wheel_size = 0;
    overflow = Binary_heap.create ();
    next_seq = 0;
    max_size = 0;
    min_slot = -1;
  }

let length q = q.wheel_size + Binary_heap.length q.overflow
let is_empty q = length q = 0
let max_length q = q.max_size
let scheduled q = q.next_seq

(* [x] must be non-negative: level = index of its highest set byte. *)
let level_of x =
  if x < 0x100 then 0
  else if x < 0x1_0000 then 1
  else if x < 0x100_0000 then 2
  else if x < 0x1_0000_0000 then 3
  else levels (* beyond the wheel span: overflow *)

(* No refs or local closures anywhere on the pop path: without flambda
   both compile to heap blocks, and this runs once per pop under the
   perf.exe zero-allocation gate. *)
let lsb_index w0 =
  let v = w0 land -w0 in
  let a = if v land 0xFFFF = 0 then 16 else 0 in
  let v = v lsr a in
  let b = if v land 0xFF = 0 then 8 else 0 in
  let v = v lsr b in
  let c = if v land 0xF = 0 then 4 else 0 in
  let v = v lsr c in
  let d = if v land 0x3 = 0 then 2 else 0 in
  let v = v lsr d in
  let e = if v land 0x1 = 0 then 1 else 0 in
  a + b + c + d + e

let set_occ q lvl slot =
  let wi = (lvl * words) + (slot lsr 5) in
  q.occ.(wi) <- q.occ.(wi) lor (1 lsl (slot land 31))

let clear_occ q lvl slot =
  let wi = (lvl * words) + (slot lsr 5) in
  q.occ.(wi) <- q.occ.(wi) land lnot (1 lsl (slot land 31))

(* Lowest occupied slot index of [lvl], or -1. Words below the clock's
   own position are provably empty (every resident sits at or above the
   clock's digit), so scanning from word 0 only skips zero words. *)
let rec scan_words q base wi =
  if wi = words then -1
  else
    let word = q.occ.(base + wi) in
    if word = 0 then scan_words q base (wi + 1)
    else (wi lsl 5) lor lsb_index word

let lowest_slot q lvl = scan_words q (lvl * words) 0

(* Lowest occupied level > 0, its slot packed into the low byte;
   [wheel_size > 0] (with level 0 empty) guarantees one exists. *)
let rec first_occupied q lvl =
  let s = lowest_slot q lvl in
  if s >= 0 then (lvl lsl log_w) lor s else first_occupied q (lvl + 1)

let grow_pool q payload =
  let cap = Array.length q.n_times in
  let cap' = if cap = 0 then 64 else 2 * cap in
  let n_times = Array.make cap' 0 in
  let n_seqs = Array.make cap' 0 in
  let n_next = Array.make cap' (-1) in
  let n_payloads = Array.make cap' payload in
  Array.blit q.n_times 0 n_times 0 cap;
  Array.blit q.n_seqs 0 n_seqs 0 cap;
  Array.blit q.n_next 0 n_next 0 cap;
  Array.blit q.n_payloads 0 n_payloads 0 cap;
  (* link the fresh tail of the pool into the free list *)
  for i = cap to cap' - 2 do
    n_next.(i) <- i + 1
  done;
  n_next.(cap' - 1) <- q.free;
  q.free <- cap;
  q.n_times <- n_times;
  q.n_seqs <- n_seqs;
  q.n_next <- n_next;
  q.n_payloads <- n_payloads;
  if Array.length q.dummy = 0 then q.dummy <- [| payload |]

let alloc_node q t seq payload =
  if q.free < 0 then grow_pool q payload;
  let n = q.free in
  q.free <- q.n_next.(n);
  q.n_times.(n) <- t;
  q.n_seqs.(n) <- seq;
  q.n_next.(n) <- -1;
  q.n_payloads.(n) <- payload;
  n

let free_node q n =
  q.n_next.(n) <- q.free;
  q.free <- n;
  if Array.length q.dummy > 0 then q.n_payloads.(n) <- q.dummy.(0)

(* Append an existing node to a slot's FIFO. Slot lists stay
   seq-ascending without sorting: direct adds carry a fresh (maximal)
   seq, and cascades preserve relative order into a level whose slots
   are empty at cascade time. *)
let append_node q lvl slot n =
  let idx = (lvl lsl log_w) lor slot in
  let tail = q.tails.(idx) in
  if tail < 0 then begin
    q.heads.(idx) <- n;
    set_occ q lvl slot
  end
  else q.n_next.(tail) <- n;
  q.tails.(idx) <- n

let add q ~time payload =
  let t = Time.to_ns time in
  if t < q.cur then
    invalid_arg "Timer_wheel.add: time precedes the last popped time";
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  let lvl = level_of (t lxor q.cur) in
  if lvl >= levels then
    Binary_heap.add_seq q.overflow ~time_ns:t ~seq payload
  else begin
    let slot = (t lsr (log_w * lvl)) land (w - 1) in
    (if q.min_slot >= 0 && t < q.n_times.(q.heads.(q.min_slot)) then
       q.min_slot <- (if lvl = 0 then slot else -1));
    let n = alloc_node q t seq payload in
    append_node q lvl slot n;
    q.wheel_size <- q.wheel_size + 1
  end;
  let len = q.wheel_size + Binary_heap.length q.overflow in
  if len > q.max_size then q.max_size <- len

(* Empty slot [(lvl, slot)] and redistribute its events against the
   advanced clock. Each node lands strictly below [lvl]: its bytes above
   [lvl] equal the old clock's (placement invariant) and its byte [lvl]
   equals [slot] = the new clock's, so the xor's top byte is below
   [lvl]. *)
let rec redistribute q node =
  if node >= 0 then begin
    let next = q.n_next.(node) in
    let t = q.n_times.(node) in
    let lvl' = level_of (t lxor q.cur) in
    if lvl' >= levels then begin
      (* defensive only: redistribution always lands below the source *)
      Binary_heap.add_seq q.overflow ~time_ns:t ~seq:q.n_seqs.(node)
        q.n_payloads.(node);
      free_node q node;
      q.wheel_size <- q.wheel_size - 1
    end
    else begin
      q.n_next.(node) <- -1;
      append_node q lvl' ((t lsr (log_w * lvl')) land (w - 1)) node
    end;
    redistribute q next
  end

let cascade q lvl slot ~base =
  assert (base >= q.cur);
  let idx = (lvl lsl log_w) lor slot in
  let head = q.heads.(idx) in
  q.heads.(idx) <- -1;
  q.tails.(idx) <- -1;
  clear_occ q lvl slot;
  q.cur <- base;
  redistribute q head

(* Locate the wheel minimum, cascading coarse slots down until it sits
   in level 0. Returns the level-0 slot index; -1 when the wheel is
   empty; -2 when the overflow head precedes the earliest pending wheel
   window, in which case the cascade is skipped (advancing the clock
   past the overflow head would break the placement invariant) and the
   caller pops from overflow. *)
let rec locate q =
  if q.min_slot >= 0 then q.min_slot
  else if q.wheel_size = 0 then -1
  else begin
    let s0 = lowest_slot q 0 in
    if s0 >= 0 then begin
      q.min_slot <- s0;
      s0
    end
    else begin
      let packed = first_occupied q 1 in
      let lvl = packed lsr log_w and s = packed land (w - 1) in
      let shift = log_w * lvl in
      let base =
        q.cur land lnot ((1 lsl (shift + log_w)) - 1) lor (s lsl shift)
      in
      if
        (not (Binary_heap.is_empty q.overflow))
        && Binary_heap.min_time_ns q.overflow < base
      then -2
      else begin
        cascade q lvl s ~base;
        locate q
      end
    end
  end

let min_time_ns q =
  assert (length q > 0);
  let loc = locate q in
  if loc < 0 then Binary_heap.min_time_ns q.overflow
  else begin
    let t = q.n_times.(q.heads.(loc)) in
    if Binary_heap.is_empty q.overflow then t
    else begin
      let ot = Binary_heap.min_time_ns q.overflow in
      if ot < t then ot else t
    end
  end

let min_time q = Time.of_ns (min_time_ns q)

let pop_overflow q =
  let t = Binary_heap.min_time_ns q.overflow in
  let p = Binary_heap.pop_min q.overflow in
  (* Safe even when the wheel is non-empty: this branch is taken only
     when the overflow head precedes the earliest wheel window, so the
     clock stays within every resident's placement window. *)
  if t > q.cur then q.cur <- t;
  p

let pop_min q =
  assert (length q > 0);
  let loc = locate q in
  if loc < 0 then pop_overflow q
  else begin
    let n = q.heads.(loc) in
    let t = q.n_times.(n) in
    let overflow_first =
      (not (Binary_heap.is_empty q.overflow))
      &&
      let ot = Binary_heap.min_time_ns q.overflow in
      ot < t || (ot = t && Binary_heap.min_seq q.overflow < q.n_seqs.(n))
    in
    if overflow_first then pop_overflow q
    else begin
      let next = q.n_next.(n) in
      q.heads.(loc) <- next;
      if next < 0 then begin
        q.tails.(loc) <- -1;
        clear_occ q 0 loc;
        q.min_slot <- -1
      end;
      (* else: the slot still holds events at this exact instant, so it
         remains the wheel minimum and the cache stays valid *)
      q.wheel_size <- q.wheel_size - 1;
      let p = q.n_payloads.(n) in
      free_node q n;
      if t > q.cur then q.cur <- t;
      p
    end
  end

let drain_one q ~f =
  if length q = 0 then false
  else begin
    let tns = min_time_ns q in
    let p = pop_min q in
    f (Time.of_ns tns) p;
    true
  end
