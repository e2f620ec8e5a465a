(** In-memory data pages and their on-disk image.

    A page holds the values of the keys mapped to it (a fixed-size key
    range per page). The image format is
    {v
      magic     u32   0x50414745 ("PAGE")
      page_id   u64
      page_lsn  u64
      count     u32
      crc       u32   over the entries region
      entries   count * (key u64, len u32, value bytes)
      padding   zeros to the page size
    v}
    [page_lsn] is the end LSN of the last logged update applied to the
    page, and drives the redo-pass "already applied?" test. [rec_lsn] is
    in-memory only: the LSN that first dirtied the page since it was last
    clean — the checkpoint's redo-point computation needs it. *)

type t = {
  id : int;
  values : string Desim.Int_table.t;
  mutable page_lsn : Lsn.t;
  mutable rec_lsn : Lsn.t option;  (** [None] when clean *)
}

val create : id:int -> t

val keys_of_page : keys_per_page:int -> int -> int * int
(** [keys_of_page ~keys_per_page id] is the key range [\[lo, hi)] the
    page covers. *)

val page_of_key : keys_per_page:int -> int -> int

val get : t -> key:int -> string option
val set : t -> key:int -> value:string -> lsn:Lsn.t -> unit
(** Stores the value and advances [page_lsn]; does not touch [rec_lsn]
    (dirtiness is the buffer pool's business). *)

val is_dirty : t -> bool

val serialize : t -> page_bytes:int -> string
(** Raises if the contents do not fit; callers bound value sizes. *)

val deserialize : string -> t option
(** [None] when the image is not a valid page (unwritten or torn). *)

val image_lsn : string -> id:int -> int
(** The [page_lsn] the image's header claims, if the header is one
    {!deserialize} accepts for page [id]; [-1] otherwise. Reads only the
    header: an image it accepts can still fail {!deserialize} on its
    entries or CRC. *)
