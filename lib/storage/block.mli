(** Block-device abstraction.

    A device is a record of operations over an addressable array of
    sectors. Timed operations ({!read}, {!write}, {!flush}) are
    process-blocking: they must be called from inside a {!Desim.Process}
    and return when the device completes the request. {!durable_read}
    bypasses timing and the volatile cache — it answers "what is on the
    non-volatile media right now", and is what crash-recovery and the
    durability audit use.

    A plain {!write} is durable on completion only if the device has no
    volatile write cache (or the write bypasses it); [write ~fua:true]
    always hits media before completing. *)

type info = { model : string; sector_size : int; capacity_sectors : int }

type ops = {
  op_read : lba:int -> sectors:int -> string;
  op_write : lba:int -> data:string -> fua:bool -> unit;
  op_flush : unit -> unit;
  op_power_cut : unit -> unit;
  op_durable_read_into : lba:int -> sectors:int -> Bytes.t -> off:int -> unit;
      (** Fill [sectors * sector_size] bytes of the buffer from [off] with
          the non-volatile media, zeros for sectors never written, and
          touch no other byte. The range and buffer are checked by
          {!durable_read_into} before the op runs. *)
  op_durable_extent : unit -> int;
}

type t

val make :
  ?journal_id:int -> info:info -> stats:Disk_stats.t -> ops:ops -> unit -> t
(** Device constructors in {!Hdd}, {!Ssd} and {!Write_cache} use this.
    [journal_id] is the endpoint id the device registered with an active
    {!Desim.Journal} at creation ([-1], the default, when none was
    recording). *)

val info : t -> info
val stats : t -> Disk_stats.t

val journal_id : t -> int
(** The {!Desim.Journal} endpoint id this device or frontend registered
    at creation, or [-1] if created without recording. *)

val read : t -> lba:int -> sectors:int -> string
(** Blocking read of [sectors] sectors; requires the range to be within
    the device capacity. *)

val write : t -> ?fua:bool -> lba:int -> string -> unit
(** [write t ~lba data] is a blocking write; [String.length data] must be
    a positive multiple of the sector size. [fua] defaults to [false]. *)

val flush : t -> unit
(** Blocks until all volatile-cached writes are on media. *)

val power_cut : t -> unit
(** Electrical power is gone this instant: volatile state is dropped and
    any in-flight write may be torn. Callable from any context. *)

val durable_read_into : t -> lba:int -> sectors:int -> Bytes.t -> off:int -> unit
(** Untimed read of the non-volatile media into a caller-owned buffer,
    callable from any context: bytes [off, off + sectors * sector_size)
    of the buffer receive the sectors, and no other byte changes. Raises
    [Invalid_argument] if that range does not fit the buffer. Recovery
    and the crash-surface digest reuse one buffer across reads with
    this. *)

val durable_read : t -> lba:int -> sectors:int -> string
(** {!durable_read_into} a fresh buffer, returned as a string. *)

val durable_extent : t -> int
(** One past the highest sector ever written to media; bounds how far a
    post-crash scan needs to read. *)

val sectors_of_bytes : t -> int -> int
(** Number of sectors needed to hold the given byte count. *)

module Media : sig
  (** Non-volatile sector store shared by the device implementations.
      Sectors group into pages of {!page_sectors}; writes into an
      existing page allocate nothing. *)

  type device := t
  type t

  val page_sectors : int
  (** Sectors per page (8 — 4 KiB at 512-byte sectors): the copy
      granularity of read-throughs materialised by {!overlay} writes. *)

  val create : sector_size:int -> capacity_sectors:int -> t
  val sector_size : t -> int
  val capacity_sectors : t -> int

  val read_into : t -> lba:int -> sectors:int -> Bytes.t -> off:int -> unit
  (** Copy the sectors into the buffer at [off]; unwritten sectors are
      written as zero bytes, so a reused buffer needs no clearing. *)

  val read : t -> lba:int -> sectors:int -> string
  (** {!read_into} a fresh buffer. *)

  val write : t -> lba:int -> data:string -> unit

  val write_torn : t -> rng:Desim.Rng.t -> lba:int -> data:string -> unit
  (** Persist a uniformly random prefix of the sectors, modelling a write
      interrupted by power loss. *)

  val write_prefix : t -> lba:int -> data:string -> sectors:int -> unit
  (** Persist exactly the first [sectors] sectors of [data] — the
      deterministic form of {!write_torn} used when replaying a journaled
      tear with a known draw. *)

  val extent : t -> int
  (** One past the highest sector ever written. *)

  val overlay : t -> t
  (** A copy-on-write view: reads fall through to the underlying media
      where the overlay has no page of its own, writes stay in the
      overlay (copying the underlying page up first). The view is live —
      it sees later writes to the base where it has not diverged. The
      crash-surface sweeps layer per-crash-point deltas over one
      evolving base image with this. *)

  val check_range : device -> lba:int -> sectors:int -> unit
  (** Asserts the range lies within the device. *)
end

val of_media : ?model:string -> Media.t -> t
(** A frozen device over a media image: durable reads work, timed
    operations raise. Recovery after a reconstructed crash runs against
    these. *)
