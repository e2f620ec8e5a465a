(** Binary min-heap priority queue of simulation events.

    The reference {!Event_queue} backend: ordered by (time, sequence
    number) with the sequence number assigned on insertion, so two
    events scheduled for the same instant fire in insertion order. The
    heap is stored as unboxed parallel arrays, so {!add}, {!pop_min} and
    {!drain_one} perform no per-event heap allocation (array growth
    amortises away).

    Since PR 8 the production [Event_queue] is the hierarchical
    {!Timer_wheel}; this module keeps the O(log n) heap alive as the
    model-test oracle and microbench baseline, and as the wheel's
    overflow store. Unlike the wheel, the heap accepts inserts in any
    time order. *)

type 'a t

val create : unit -> 'a t
(** An empty queue; the first {!add} allocates the backing arrays. *)

val add : 'a t -> time:Time.t -> 'a -> unit
(** Insert an event payload to fire at [time]. Allocation-free except
    when the heap has to grow. *)

val add_seq : 'a t -> time_ns:int -> seq:int -> 'a -> unit
(** Insert with a caller-supplied (time in ns, tie-break sequence) key.
    Used by {!Timer_wheel}, which numbers events across its wheel and
    this overflow heap with a single counter so the global (time, seq)
    order is preserved. Mixing [add_seq] with {!add} on one queue is the
    caller's responsibility: {!add} stamps sequence numbers from the
    queue's own counter. *)

val is_empty : 'a t -> bool

val length : 'a t -> int
(** Events currently queued. *)

val max_length : 'a t -> int
(** High-water mark of {!length} over the queue's lifetime. *)

val scheduled : 'a t -> int
(** Total events ever inserted via {!add} (the next sequence number). *)

val min_time : 'a t -> Time.t
(** Time of the earliest event. The queue must be non-empty (checked by
    an assert); callers guard with {!is_empty}. *)

val min_time_ns : 'a t -> int
(** {!min_time} in raw nanoseconds, for key comparisons. Non-empty. *)

val min_seq : 'a t -> int
(** Sequence number of the earliest event, for (time, seq) comparisons
    against another backend's head. Non-empty. *)

val pop_min : 'a t -> 'a
(** Remove and return the earliest event's payload without boxing it.
    The queue must be non-empty (checked by an assert). *)

val drain_one : 'a t -> f:(Time.t -> 'a -> unit) -> bool
(** [drain_one q ~f] pops the earliest event and applies [f time
    payload]; [false] (and [f] not called) when empty. *)

