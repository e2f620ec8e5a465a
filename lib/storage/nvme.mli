(** NVMe / zoned-append device model.

    Service time has no positional component: a write costs the
    submission overhead plus one program round per
    [ceil (sectors / page_sectors)] page, at microsecond scale — two to
    three orders of magnitude below a disk rotation and an order below
    the SATA-era {!Ssd}. Up to [queue_depth] requests are in flight
    concurrently; requests beyond the queue depth wait FIFO.

    The device keeps a per-zone append pointer ([zone_sectors]-sized
    zones) purely as an accounting surface: writes at the pointer count
    as zone appends, writes behind it as rewinds (the in-place pattern
    zoned namespaces forbid). The counters surface per instance as
    [device.zone_appends:<instance>] / [device.zone_rewinds:<instance>]
    in the metrics registry, so a log layout can be judged append-clean
    without changing the block API.

    Torn-tail semantics on power cut follow the other models — every
    in-flight program persists a uniformly random prefix of its sectors
    — except that with [queue_depth > 1] {e several} writes can be in
    flight and each tears independently, with rng draws consumed in
    submission order (the order the crash sweep's reconstruction
    replays). *)

type config = {
  queue_depth : int;  (** concurrent in-flight requests *)
  submit_overhead : Desim.Time.span;
      (** doorbell + controller cost per command *)
  program_latency : Desim.Time.span;  (** per-page program *)
  read_latency : Desim.Time.span;  (** per-page read *)
  page_sectors : int;  (** flash page size in sectors *)
  zone_sectors : int;
      (** zone size in sectors; must divide [capacity_sectors] *)
  capacity_sectors : int;
  sector_size : int;
}

val default : config
(** 32-deep queue, 8 us submission, 12 us page program, 4 KiB pages,
    32 MiB zones, 32 GiB capacity: a small datacenter ZNS drive. *)

val create : Desim.Sim.t -> ?model:string -> config -> Block.t
(** The device derives its torn-write randomness from the simulation's
    root generator and, when a {!Desim.Journal} is recording, registers
    itself and journals every write's program start and media
    completion. *)

(** {2 Pure timing} — shared between the live request path and the
    crash-surface journal reconstruction, exactly as for
    {!Hdd.write_timeline}. *)

val service_ns : config -> sectors:int -> int
(** Full service time of one write in nanoseconds (submission overhead
    plus page programs); pure integer arithmetic, allocation-free. *)

type timeline = {
  wt_start_ns : int;  (** program start: a power cut from here tears *)
  wt_complete_ns : int;  (** media write instant *)
}

val write_timeline : config -> now_ns:int -> sectors:int -> timeline
(** Timing of a write submitted at [now_ns] with a free queue slot:
    submission overhead, then page programs. Exactly the arithmetic the
    live {!create}d device performs. *)

(** {2 Zone accounting} — exposed for the allocation gate in
    the [engine] bench gate, which drives {!Zones.note_write} directly to show
    the per-write hot path allocates nothing. *)

module Zones : sig
  type t

  val create : config -> t

  val note_write : t -> lba:int -> sectors:int -> unit
  (** Advance the target zone's append pointer (or count a rewind);
      integer arithmetic only, zero allocation. *)

  val appends : t -> int
  val rewinds : t -> int
end
