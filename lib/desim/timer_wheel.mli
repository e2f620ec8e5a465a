(** Hierarchical timer wheel — the production {!Event_queue} backend.

    Four levels of 256 slots; level 0 resolves single nanoseconds, so a
    FIFO list per slot preserves the (time, insertion-sequence) order
    exactly, and the levels together cover a [2^32] ns window around the
    wheel clock. Coarser slots cascade downward lazily as the clock
    reaches them; events beyond the window park in a {!Binary_heap}
    overflow sharing the wheel's sequence counter, and popping compares
    both heads on (time, seq), so the pop order is identical to the
    heap's — certified by the wheel-vs-heap qcheck model test and the
    [engine] bench gate's ordering fingerprint.

    {!add} and {!pop_min}/{!drain_one} are amortised O(1): an event is
    appended once and cascaded at most [levels - 1] times, all over flat
    unboxed arrays with zero steady-state allocation.

    {b Monotone-add contract}: [add ~time] requires [time] at or after
    the last popped time — slot placement is relative to the wheel
    clock, which trails the popped minimum. {!Sim} guarantees this
    ([Sim.schedule_at] refuses to schedule into the simulated past). Use
    {!Binary_heap} where inserts arrive in arbitrary time order. *)

type 'a t

val create : unit -> 'a t
(** An empty wheel with clock 0; the first {!add} allocates the pool. *)

val add : 'a t -> time:Time.t -> 'a -> unit
(** Insert an event payload to fire at [time]. Allocation-free except
    when the node pool has to grow. Raises [Invalid_argument] if [time]
    precedes the last popped time. *)

val is_empty : 'a t -> bool

val length : 'a t -> int
(** Events currently queued (wheel slots plus overflow). *)

val max_length : 'a t -> int
(** High-water mark of {!length} over the wheel's lifetime. *)

val scheduled : 'a t -> int
(** Total events ever inserted (the next sequence number). *)

val min_time : 'a t -> Time.t
(** Time of the earliest event. Non-empty (checked by an assert);
    callers guard with {!is_empty}. May cascade internally; the located
    minimum is cached for the following {!pop_min}. *)

val pop_min : 'a t -> 'a
(** Remove and return the earliest event's payload without boxing it.
    Non-empty (checked by an assert) — the allocation-free hot path. *)

val drain_one : 'a t -> f:(Time.t -> 'a -> unit) -> bool
(** [drain_one q ~f] pops the earliest event and applies [f time
    payload]; [false] (and [f] not called) when empty. *)

val wheel_span : int
(** Nanoseconds covered by the wheel levels ([2^32]); events scheduled
    further than this past the clock's window take the overflow path.
    Exposed for the model tests' far-future generators. *)
