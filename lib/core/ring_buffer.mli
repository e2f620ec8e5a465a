(** The trusted log buffer: a bounded FIFO of block writes.

    The buffer holds the (lba, data) writes the guest has issued to its
    virtual log disk, in issue order, with byte-accurate capacity
    accounting. {!pop_coalesced} merges runs of overlapping or adjacent
    writes into one large physical write — successive WAL forces rewrite
    the trailing partial sector, and coalescing both resolves the overlap
    (later data wins) and turns the drain into streaming-sized I/O. *)

type entry = { lba : int; data : string }

type t

val create : sector_size:int -> capacity_bytes:int -> t
(** An empty buffer; [capacity_bytes] bounds {!bytes_used}, and entries
    must be whole sectors of [sector_size]. *)

val bytes_used : t -> int

val length : t -> int
(** Queued entries. *)

val is_empty : t -> bool

val fits : t -> int -> bool
(** [fits t n] — would an [n]-byte entry be accepted now? *)

val try_push : ?stamp:int -> t -> lba:int -> data:string -> bool
(** False when the entry does not fit; the caller applies
    backpressure. [stamp] (default 0) is an opaque caller-supplied
    mark stored alongside the entry — the logger passes the push
    instant in nanoseconds so the drain can report how long data sat
    buffered ({!head_stamp}). *)

val head_stamp : t -> int
(** The stamp of the oldest entry; [0] when empty. Read it before
    {!pop}/{!pop_coalesced} to age the batch about to drain. *)

val pop : t -> entry option

val pop_coalesced : t -> max_bytes:int -> entry option
(** Pop the head and merge queued entries that start within or
    immediately after the accumulated range, keeping the merged size
    within [max_bytes]. Later entries overwrite overlapping sectors.
    Entries outside the range — another log region's writes, when the
    WAL runs parallel streams — are skipped over and stay queued in
    order, so one region's run coalesces even when regions interleave
    in the queue; an entry overlapping a skipped one is never taken,
    keeping every sector's writes in push order. *)

val copy : t -> t
(** An independent buffer with the same entries, stamps and counters. *)

val pushed_bytes : t -> int
(** Total bytes ever accepted. *)

val popped_bytes : t -> int
(** Total bytes ever drained. *)

val max_bytes_used : t -> int
(** High-water mark of {!bytes_used} over the buffer's lifetime. *)

val pushes : t -> int
(** Entries ever accepted. *)
