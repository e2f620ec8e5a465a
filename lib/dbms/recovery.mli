(** ARIES-style crash recovery.

    Given the *durable* (post-crash media) contents of the log and data
    devices, recovery rebuilds the database state that the committed
    transactions define:

    + {b scan} — read the durable log region and decode records until the
      first invalid one (the CRC cuts off a torn tail);
    + {b analysis} — classify transactions into committed / aborted /
      losers (no outcome record in the durable log);
    + {b redo} — repeating history from the master block's redo point:
      re-apply every update whose LSN is beyond the containing page's
      [page_lsn];
    + {b undo} — roll back the losers' updates in reverse LSN order using
      the logged before-images (strict 2PL guarantees a loser's update is
      the last durable-logged write of its key, so reverse application is
      exact).

    The result also reports what was scanned and applied, which the
    durability audit and the recovery experiments inspect. *)

type result = {
  store : (int, string) Hashtbl.t;  (** recovered key → value *)
  records : (Log_record.t * Lsn.t) list;
      (** the decoded durable log, for audits that need per-transaction
          write sets *)
  parities : (int, int) Hashtbl.t;
      (** for each page with an intact on-device image: which of its two
          slots holds the newest one (the restart path's flushes must
          avoid overwriting it) *)
  committed : int list;  (** txids with a durable commit record, ascending *)
  aborted : int list;
  losers : int list;
  durable_records : int;  (** records decoded before the log ended *)
  durable_end : Lsn.t;  (** LSN of the durable log prefix *)
  redo_start : Lsn.t;
  redo_applied : int;
  undo_applied : int;
  pages_loaded : int;
}

type replay_stats = {
  s_durable_records : int;
  s_durable_bytes : int;  (** LSN of the durable log prefix *)
  s_committed : int;
  s_aborted : int;
  s_losers : int;
  s_redo_applied : int;
  s_undo_applied : int;
  s_pages_loaded : int;
  s_store_keys : int;
}
(** A flat scalar summary of one recovery pass — what the crash-surface
    sweep records per crash point, and what two runs over the same media
    must reproduce identically (recovery is a pure function of durable
    media). *)

val stats : result -> replay_stats

val pp_stats : Format.formatter -> replay_stats -> unit

val run :
  log_device:Storage.Block.t ->
  data_device:Storage.Block.t ->
  wal_config:Wal.config ->
  pool_config:Buffer_pool.config ->
  result
(** Pure inspection of durable media: callable from any context and at
    any simulated time (normally after a crash). *)

val read_durable_log : log_device:Storage.Block.t -> wal_config:Wal.config -> string
(** The raw durable log stream bytes; exposed for tests. *)

val scan_chunk_sectors : int
(** Sectors {!scan_records} reads per device read; exposed so tests can
    place records across chunk boundaries. *)

val scan_records :
  log_device:Storage.Block.t -> wal_config:Wal.config -> (Log_record.t * Lsn.t) list
(** Chunked scan of the durable log: decodes records incrementally and
    stops at the first invalid one, reading only slightly past the valid
    log even when the device's written extent is much larger (the
    single-disk layout). It reads every chunk into one reused window
    (one chunk plus at most one partial record) and allocates, beyond
    that window, only the records it returns. Its result equals
    [Log_record.decode_stream (read_durable_log ...)], LSNs included.
    This is what {!run} uses. *)

val load_page :
  data_device:Storage.Block.t ->
  pool_config:Buffer_pool.config ->
  int ->
  (int * Page.t) option
(** The slot {!run} recovers page [id] from, as [(parity, page)]: the
    newest slot whose image is intact, a tie going to parity 0; [None]
    if neither slot holds an intact image of that page. It reads both
    slots' headers and deserializes the newer slot, and the other only
    when the newer one is torn. *)

(** Incremental recovery over a monotonically growing base media image,
    for sweeps that run recovery at many nearby crash points. A
    {!Incremental.shared} value, built once per reference run from the
    "future stream" (every byte the run ever pushes at its log, latest
    version winning), holds the decoded record array and the
    transaction/page position indexes every point's scan and analysis
    reduce to. A cursor-local {!Incremental.t} adds byte watermarks
    that certify each point's durable log is a verified prefix of the
    stream, plus redo state repeated once over the evolving base data
    volume and patched per point at page granularity. Each {!run}
    produces a {!result} identical (counters included) to what the
    sequential {!run} returns on the same media — the crash sweep's
    differential oracle compares the two bit-for-bit. See the
    implementation comment for the exact sharing discipline. *)
module Incremental : sig
  type shared
  (** Immutable per-reference-run state; safe to share across domains. *)

  val prepare :
    wal_config:Wal.config ->
    pool_config:Buffer_pool.config ->
    log_sector_size:int ->
    future:string ->
    shared
  (** [future] is the reference run's log stream image: every push's
      payload blitted at its stream offset (offset 0 =
      [log_start_lba]), later pushes overwriting earlier ones. *)

  type t

  val create : shared -> data_base:Storage.Block.t -> t
  (** [data_base] must read through to the evolving base data volume:
      the cache re-probes invalidated pages after every
      {!note_data_write}. *)

  val note_log_write : t -> lba:int -> data:string -> unit
  (** A write became durable on the base log device: verify it against
      the future stream and advance (or, on a stale tail sector,
      retract) the base watermark. *)

  val note_push : t -> lba:int -> data:string -> unit
  (** The logger buffered a log write: verify it against the future
      stream and advance the push watermark, below which per-point
      replayed drain writes are trusted without comparison. *)

  val note_data_write : t -> lba:int -> sectors:int -> unit
  (** A write became durable at [lba] (data-volume address space) on
      the base data volume: invalidate the cached pages whose slots it
      intersects. *)

  val run :
    t ->
    log_overlay:(int * string * int * bool) list ->
    data_overlay:(int * int) list ->
    log_device:Storage.Block.t ->
    data_device:Storage.Block.t ->
    result
  (** Recovery over the point's media: the base image plus the point's
      overlays. [log_overlay] lists the point's log-device writes as
      [(lba, data, persisted_sectors, push_derived)] in application
      order — exactly what [log_device] layers over the base;
      [push_derived] marks writes whose bytes replay buffered pushes
      (trusted below the push watermark; recorded device batches with
      possibly-stale tail sectors must pass [false] and are compared
      directly). [data_overlay] lists the point's data-volume writes as
      [(lba, sectors)] ranges in the data volume's address space.
      [log_device] and [data_device] are the point's frozen devices
      (master-block reads, page loads, extents). *)

  val rebuilds : t -> int
  (** Times the shared redo state was rebuilt from scratch after a
      master-block move (diagnostic; never on the sweep's workloads). *)

end
