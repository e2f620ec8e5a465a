(** Priority queue of simulation events.

    Ordered by (time, sequence number); the sequence number is assigned
    on insertion, so two events scheduled for the same instant fire in
    insertion order — this is what makes simulation runs deterministic.

    Since PR 8 the implementation is the hierarchical {!Timer_wheel}
    (amortised O(1) add/pop over flat unboxed arrays) rather than the
    O(log n) binary heap, which survives as {!Binary_heap} — the oracle
    the wheel is model-tested against. The pop order of the two backends
    is identical by construction and by test. {!add}, {!pop_min} and
    {!drain_one} perform no per-event heap allocation (pool growth
    amortises away).

    Inserts must be monotone — at or after the last popped time — which
    {!Sim} guarantees by construction ([Sim.schedule_at] refuses the
    simulated past). For arbitrary-order insertion use {!Binary_heap}. *)

type 'a t

val create : unit -> 'a t
(** An empty queue. *)

val add : 'a t -> time:Time.t -> 'a -> unit
(** Insert an event payload to fire at [time]. Allocation-free except
    when the backing arrays have to grow. Raises [Invalid_argument] if
    [time] precedes the last popped time (see the monotone contract
    above). *)

val is_empty : 'a t -> bool

val length : 'a t -> int
(** Events currently queued. *)

val max_length : 'a t -> int
(** High-water mark of {!length} over the queue's lifetime — the
    simultaneity the run actually exercised; free to maintain and
    surfaced by the metrics report. *)

val scheduled : 'a t -> int
(** Total events ever inserted (the next sequence number). *)

val min_time : 'a t -> Time.t
(** Time of the earliest event. The queue must be non-empty (checked by
    an assert); callers guard with {!is_empty}. *)

val pop_min : 'a t -> 'a
(** Remove and return the earliest event's payload without boxing it.
    The queue must be non-empty (checked by an assert); callers guard
    with {!is_empty} — this is the allocation-free hot path used by
    [Sim.step]. *)

val drain_one : 'a t -> f:(Time.t -> 'a -> unit) -> bool
(** [drain_one q ~f] pops the earliest event and applies [f time
    payload]; [false] (and [f] not called) when empty. Exceptionless and
    allocation-free provided [f] is a pre-existing closure. *)
