(** RAID-0 striping across block devices.

    Chunks of [chunk_sectors] rotate round-robin over the members, so
    independent requests land on independent actuators and large
    requests split across them. This models the multi-spindle data
    volume of a paper-era database testbed; it adds bandwidth and
    request parallelism, not redundancy (this is RAID-0 — member loss is
    volume loss, which a durability experiment never relies on
    surviving).

    All members must share a sector size; the volume capacity is the
    smallest member capacity times the member count (in whole stripes). *)

val create :
  Desim.Sim.t -> ?model:string -> chunk_sectors:int -> Block.t array -> Block.t
(** Requires at least one member and [chunk_sectors > 0]. Requests
    spanning several chunks are issued to the members concurrently and
    complete when the slowest segment does. [power_cut] propagates to
    every member. *)

type segment = { member : int; member_lba : int; global_off : int; sectors : int }

val plan : members:int -> chunk_sectors:int -> lba:int -> sectors:int -> segment list
(** The per-member segments a volume-level request splits into, in issue
    order. Pure in the geometry — the crash-surface journal
    reconstruction uses this to attribute journaled member writes to the
    volume submissions that caused them. *)

val iter_global_ranges :
  members:int ->
  chunk_sectors:int ->
  member:int ->
  lba:int ->
  sectors:int ->
  (int -> int -> unit) ->
  unit
(** The inverse of {!plan}: [f global_lba sectors] for each chunk of
    member [member]'s range [\[lba, lba + sectors)], in order. *)
