(** Write-ahead log manager.

    The logical log is one or more ([streams]) append-only byte streams
    of encoded {!Log_record.t}s. {!append} only buffers in (guest)
    memory; {!force} makes a stream durable up to a target LSN by
    writing the not-yet written sector range to the log device. Because
    each stream's device write is serialised by a mutex, committers that
    arrive while a force is in flight wait, and the next force covers
    all of their records in one device write — i.e. *group commit* falls
    out of the structure; {!force_batched} additionally applies the
    engine's {!Commit_policy} gather wait on top. A force that begins or
    ends mid-sector rewrites the partial sector (zero-padded at the
    tail), which is how real WAL implementations handle unaligned tails.

    With [streams > 1] each stream is an independent log: its own LSN
    space (byte offsets within the stream), its own durable prefix, its
    own device region ([stream_stride_sectors] apart), and forces on
    different streams proceed concurrently. Cross-stream atomicity is
    the engine's job, via dependency vectors threaded through
    {!dep_watermark} and recorded in [Commit_multi] records — recovery
    then accepts a commit only if every per-stream dependency is inside
    that stream's durable prefix.

    What "durable" means depends on the device the WAL writes to: a raw
    disk with its write cache disabled is durable at completion; a
    write-cache device needs [flush_after_write] (and the *unsafe*
    configuration deliberately leaves it off); the RapiLog virtual log
    disk acks from the trusted buffer, and its contract makes that ack
    durable.

    On-device layout: sector [master_lba] holds the master block (the
    latest checkpoint's redo LSN); stream [s]'s byte 0 lives at
    [log_start_lba + s * stream_stride_sectors]. *)

type config = {
  master_lba : int;
  log_start_lba : int;
  flush_after_write : bool;
      (** issue a device flush after every force — required for
          durability on volatile-cache devices *)
  streams : int;  (** parallel log streams; 1 = the classic single log *)
  stream_stride_sectors : int;
      (** device-region spacing between consecutive streams' byte 0;
          also each stream's region size when [streams > 1] *)
}

val default_config : config
(** Master at sector 0, log from sector 8, no flush-after-write, one
    stream (64 Ki-sector stride when widened). *)

val stream_start_lba : config -> int -> int
(** Device sector holding byte 0 of the given stream. *)

type t

val create : Desim.Sim.t -> config -> device:Storage.Block.t -> t

val create_resumed :
  Desim.Sim.t ->
  config ->
  device:Storage.Block.t ->
  flushed:Lsn.t ->
  tail:string ->
  t
(** Resume logging after a restart: the stream continues at [flushed]
    (the durable log end recovery found), and [tail] supplies the bytes
    between the last sector boundary and [flushed] so that the next
    force can rewrite the partial tail sector correctly. Requires
    [String.length tail = flushed mod sector_size] and a single-stream
    config. *)

val stream_count : t -> int

val set_policy : t -> Commit_policy.t -> unit
(** Install the commit-batching policy {!force_batched} applies; set
    from the engine profile at engine creation. Defaults to
    {!Commit_policy.default}. *)

val policy : t -> Commit_policy.t

val dep_watermark : t -> int array
(** The cross-stream commit-dependency watermark, one slot per stream:
    slot [s] is the highest stream-[s] LSN any committed transaction has
    depended on. The engine folds it into each commit's dependency
    vector and publishes the vector back (both without blocking, so the
    read-modify-write is atomic in the cooperative simulation), which
    totally orders multi-stream commits for recovery. *)

val append : ?stream:int -> t -> Log_record.t -> Lsn.t
(** Buffer a record; returns its end LSN (within [stream], default 0).
    Callable from any context. *)

val end_lsn : ?stream:int -> t -> Lsn.t
(** LSN just past the last appended record of the stream. *)

val flushed_lsn : ?stream:int -> t -> Lsn.t
(** Stream prefix known durable (per the device's contract). *)

val ewma_ns : ?stream:int -> t -> int
(** The stream's EWMA of observed device write latency in nanoseconds
    (0 until the first force writes); the adaptive policy's input. *)

val force : ?stream:int -> t -> Lsn.t -> unit
(** Block until [flushed_lsn ~stream t >= target]. Must run in a
    process. *)

val force_batched : ?stream:int -> t -> Lsn.t -> unit
(** {!force} for the commit path: applies the installed
    {!Commit_policy}'s gather wait before the force leader writes.
    [Fixed 1] and [Serial] skip the wait without scheduling any event,
    making this identical to {!force} for the default profiles. *)

val force_exclusive : ?stream:int -> t -> unit
(** Unconditionally issue a device write covering the unflushed range
    (rewriting the tail sector when there is nothing new). This is what
    an engine *without* group commit does: one physical write per
    commit, even when a concurrent committer already covered it. *)

val write_master : t -> Lsn.t -> unit
(** Persist the checkpoint redo LSN in the master block (FUA write).
    Must run in a process. *)

val read_master : config -> device:Storage.Block.t -> Lsn.t option
(** Post-crash, untimed: the redo LSN recorded by the last completed
    checkpoint, if any master block is intact on media. *)

val base_lsn : ?stream:int -> t -> Lsn.t
(** Oldest stream offset still held in memory. The stream holds only
    what a force can still write: from the sector holding {!flushed_lsn}
    (the sector before it when {!flushed_lsn} is sector-aligned) to
    {!end_lsn}. It drops the older bytes once they pass 64 KiB, so a
    stream holds at most 64 KiB plus one sector more than its unforced
    bytes, checkpoints or not. Only guest memory is recycled: the
    on-media log region is append-only in this model, so recovery still
    scans from the start. *)

val forces : t -> int
(** Number of device writes issued by {!force} across all streams
    (group-commit batches). *)

val force_bytes : t -> Desim.Stats.Sample.t
(** Batch sizes in bytes, one observation per force. *)

val stream_contents : ?stream:int -> t -> string
(** The stream's in-memory bytes from {!base_lsn} onwards; for tests. *)
