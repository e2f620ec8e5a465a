(** Exclusive per-key locks (strict two-phase locking).

    Waiters are queued FIFO per key. Locks are reentrant for their owner.
    Txids are positive, as {!Txn.Manager} allocates them.
    Callers avoid deadlock by acquiring keys in sorted order (the engine
    sorts each transaction's write set); the table itself does no
    deadlock detection. *)

type t

val create : Desim.Sim.t -> t

val lock : t -> txid:int -> key:int -> unit
(** Blocks the calling process until the lock is granted. *)

val try_lock : t -> txid:int -> key:int -> bool

val unlock : t -> txid:int -> key:int -> unit
(** Requires the caller to own the lock; hands it to the next waiter. *)

val unlock_all : t -> txid:int -> keys:int list -> unit

val owner : t -> key:int -> int option
val locked_count : t -> int
(** Number of currently-held locks. *)
