(** Buffer pool: the in-memory page cache over the data device.

    The pool enforces the write-ahead rule: before a dirty page image
    goes to the data device, the WAL is forced up to that image's
    [page_lsn]. Pages are fetched on miss (a timed device read) and a
    least-recently-used *clean-preferred* victim is evicted when over
    capacity; evicting a dirty page flushes it first (a steal policy —
    uncommitted data can reach the data device, which is why recovery
    needs an undo pass).

    {b Victim rule.} Every access stamps its page with the next tick of
    a pool-wide clock. A miss at capacity evicts the clean page with the
    smallest stamp; if no cached page is clean, the dirty page with the
    smallest stamp. Stamps are unique, so the victim is unique. The
    cached pages sit in an indexed binary min-heap ordered clean before
    dirty, then by stamp: an access, a change of dirtiness (mark, flush,
    install) and an eviction each cost O(log capacity) and allocate
    nothing, and the victim is the heap's root. A dirty victim stays
    cached, and hittable, while its flush is on the device; if a hit
    updated it meanwhile, it stays dirty and cached and the victim is
    picked again, so no update is lost to an eviction. A second indexed
    heap holds the dirty pages by stamp, and serves {!clean}.

    {b Torn-page protection.} A page image spans many sectors, and a
    power cut can tear a write at sector granularity — which would
    destroy the page's only durable copy if images were updated in
    place. Each page therefore owns a {e pair} of on-device slots and
    every flush goes to the slot the current newest image does {e not}
    occupy; readers (and recovery) take the newest slot whose CRC
    checks out. The invariant is that the newest intact image is never
    overwritten, so a torn flush only costs the work since the previous
    image — which the redo log still covers. This is the ping-pong
    variant of InnoDB's doublewrite buffer / PostgreSQL's full-page
    writes. *)

type config = {
  capacity_pages : int;
  page_bytes : int;  (** multiple of the device sector size *)
  keys_per_page : int;
  data_start_lba : int;
}

val default_config : config
(** 512-page cache, 8 KiB pages, 16 keys per page. *)

type t

val create :
  Desim.Sim.t ->
  config ->
  device:Storage.Block.t ->
  wal_force:(page:int -> Lsn.t -> unit) ->
  t
(** [wal_force] enforces the WAL rule before a dirty page flush: it must
    make the flushed page's log durable up to the given LSN. The page id
    is supplied so a multi-stream WAL can force the page's own stream —
    page LSNs are per-stream offsets, meaningless on any other stream. *)

val config : t -> config

val lba_of_page : config -> sector_size:int -> int -> int
(** Base address of the page's slot pair; slot [p] (0 or 1) lives at
    [lba_of_page … + p * page_bytes / sector_size]. *)

val slot_count : int
(** Slots per page (2). *)

val install : t -> Page.t -> dirty_at:Lsn.t option -> parity:int option -> unit
(** Seed the pool with a recovered page (restart path). [dirty_at]
    marks it dirty with the given recovery LSN — recovered state that is
    not yet on the data device must be flushed by a later checkpoint.
    [parity] is the slot holding the newest intact image (from
    {!Recovery}), so the next flush targets the other slot.
    Installation counts the page as allocated on device. *)

val with_page : t -> key:int -> (Page.t -> 'a) -> 'a
(** Run a function on the page holding [key], fetching it on a miss.
    Must run in a process. The page reference must not be retained past
    the callback (it may be evicted afterwards). *)

val mark_dirty : t -> Page.t -> lsn:Lsn.t -> unit
(** Note an update at [lsn]; sets the page's recovery LSN if it was
    clean. *)

val flush_page : t -> Page.t -> unit
(** WAL-force then write the page image; no-op on clean pages. Must run
    in a process. *)

val clean : t -> batch:int -> unit
(** One background-writer pass: flush up to [batch] of the
    least-recently-used dirty pages, oldest first. The batch is fixed
    before the first write; choosing it costs O(batch · log batch)
    whatever the capacity. Must run in a process. *)

val spawn_cleaner :
  t ->
  Hypervisor.Domain.t ->
  interval:Desim.Time.span ->
  batch:int ->
  Desim.Process.handle
(** Background writer (PostgreSQL's bgwriter): every [interval], run
    {!clean} with [batch] so that
    eviction usually finds a clean victim instead of stalling a page
    miss behind a device write. *)

val flush_all : t -> unit
val dirty_pages : t -> Page.t list
val min_rec_lsn : t -> Lsn.t option
(** The redo point implied by the current dirty set. *)

val cached_pages : t -> int
val hits : t -> int
val misses : t -> int
val evictions : t -> int
val page_writes : t -> int
