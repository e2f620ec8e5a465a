(** The RapiLog trusted logger.

    This is the paper's core component: a small, isolated service running
    in its own protection domain on the verified hypervisor, interposed
    on the guest's virtual log disk. A log write is acknowledged as soon
    as it is copied into the trusted buffer; a drain process writes the
    buffered data to the physical disk asynchronously, preserving issue
    order and coalescing adjacent writes into streaming-sized I/O.

    The durability contract for an acknowledged write:
    - {b DBMS or guest-OS crash}: the buffer lives outside the guest, so
      the drain simply continues — nothing is lost (seL4's verified
      isolation is what makes "the logger itself cannot crash or be
      corrupted" a defensible assumption, modelled here by fault-contained
      domains).
    - {b power cut}: the logger is notified at the instant of the
      failure; {!Ring_state.power_fail} states what it then guarantees.

    When the buffer is full, {!backend} writes block (backpressure) —
    performance degrades to the device's streaming bandwidth, never to
    a durability violation. *)

type config = {
  buffer_bytes : int;
  copy_bandwidth : float;  (** guest→trusted copy, bytes/s *)
  drain_max_bytes : int;  (** largest single physical write *)
}

val default_config : config
(** 8 MiB buffer, 1 GB/s copy, 512 KiB drain writes. *)

(** The logger's ring policy as one state type — admission, the next
    coalesced drain batch, and what a power-fail does to the ring. The
    live logger runs on it; the journal crash sweep drains a copy of it
    after a synthesised cut, so both follow this one definition. *)
module Ring_state : sig
  type t

  val create : config -> sector_size:int -> t
  val copy : t -> t
  val bytes_used : t -> int

  val admit : ?stamp:int -> t -> lba:int -> data:string -> bool
  (** Queue a whole-sector write ({!Ring_buffer.try_push}); [false] when
      admission is closed or the entry does not fit. *)

  val next_batch : t -> Ring_buffer.entry option
  (** The next coalesced batch of at most [drain_max_bytes]. *)

  val power_fail : t -> unit
  (** The power-fail contract: admission closes, and every byte already
      buffered stays in the ring for the drain. The drain then races the
      PSU hold-up window, so the contract holds iff buffered bytes /
      drain bandwidth fits in it — which is why the buffer is kept small
      and admission applies backpressure when it fills
      ({!worst_case_flush} is the budget check). *)

  val drain : t -> write:(stamp:int -> lba:int -> data:string -> bool) -> unit
  (** Hand batches to [write] (with the batch head's push stamp) until
      the ring is empty or [write] returns [false]: the device died. *)
end

type t

val create :
  Desim.Sim.t ->
  domain:Hypervisor.Domain.t ->
  ?trace:Desim.Trace.t ->
  config ->
  device:Storage.Block.t ->
  t
(** [domain] must be a trusted domain; the drain process lives there.
    [trace] (default discarding) receives drain, backpressure and
    power-fail events. *)

val config : t -> config

val device : t -> Storage.Block.t
(** The physical disk the drain writes to. *)

val backend : t -> Hypervisor.Virtio_blk.backend
(** The virtual-log-disk backend the guest's virtio frontend connects
    to. Writes ack from the buffer; flushes ack immediately (durability
    of acked data is the logger's contract, not the guest's problem). *)

val notify_power_fail : t -> unit
(** {!Ring_state.power_fail} on the live ring; the drain then races the
    hold-up window. *)

val attach_power : t -> Power.Power_domain.t -> unit
(** Register {!notify_power_fail} with the power domain and the physical
    device for loss of power at window expiry. *)

val quiesce : t -> unit
(** Block until the buffer is fully drained; for clean shutdown and for
    OS-crash experiments (where the drain continues after the guest
    died). Must run in a process. *)

val set_replication : t -> (seq:int -> lba:int -> data:string -> unit) -> unit
(** Install the replication hook (see {!Net.Quorum}), called in the
    admitting writer's process at the instant an entry lands in the
    trusted ring, with the 1-based admission sequence number. The hook
    may block (until a quorum of replicas acks): the local drain is
    signalled before it runs, and the acknowledgement bookkeeping
    happens only after it returns — and never if power failed in the
    meantime. Raises [Invalid_argument] if a hook is already set. *)

val accepting : t -> bool
(** [false] once {!notify_power_fail} ran. *)

val ring_snapshot : t -> Ring_state.t
(** A copy of the live ring state. *)

val buffered_bytes : t -> int
(** Current buffer occupancy. *)

val max_buffered_bytes : t -> int
(** High-water mark, for the hold-up budget check. *)

val acked_bytes : t -> int
(** Bytes ever acknowledged to the guest, with {!acked_writes} the
    write count; {!drained_bytes} is the total the drain has retired to
    the device. *)

val drained_bytes : t -> int
val acked_writes : t -> int

val admitted_bytes : t -> int
(** Bytes ever admitted into the ring. Admission precedes (and with
    replication can far precede) acknowledgement, so conservation is
    [drained_bytes <= admitted_bytes], not vs {!acked_bytes};
    {!admitted_writes} is the entry count (the last entry's replication
    sequence number). *)

val admitted_writes : t -> int

val drain_writes : t -> int
(** Physical writes issued: [acked_writes / drain_writes] is the
    coalescing factor. *)

val backpressure_stalls : t -> int
(** Times a writer found the buffer full and had to wait. *)

val worst_case_flush : t -> drain_bandwidth:float -> Desim.Time.span
(** Time to drain the high-water mark at the given bandwidth — compare
    against the PSU hold-up window. *)
