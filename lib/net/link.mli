(** A simulated point-to-point network link.

    A link is unidirectional: messages enter at {!send} and leave
    through the [deliver] callback given at {!create}. Each message is
    delayed by a per-message propagation latency drawn from the link's
    latency distribution plus a serialisation delay from its bandwidth,
    and delivery is {b FIFO per link}: a message never overtakes an
    earlier one on the same link, however the latency draws land
    (reordering across {e different} links is the intended — and only —
    reordering in the model). A message is delivered at most once; the
    fault model can drop it ({!config.drop_probability}, or a
    {!partition} followed by {!sever}) but never duplicate it.

    Determinism: the link draws all randomness from a private
    {!Desim.Rng} split off the simulation rng at {!create} time, and the
    pump that delivers ready messages is a single outstanding simulation
    event — so the delivery schedule is a pure function of the seed and
    the send sequence, bit-identical across {!Harness.Parallel} jobs and
    with {!Desim.Metrics} recording on or off.

    The hot path is allocation-free: queued messages live in flat
    preallocated ring arrays (grown geometrically, amortised), the pump
    closure is preallocated, and a zero drop probability never touches
    the rng. The [engine] bench gate checks this. *)

open Desim

type latency =
  | Constant of Time.span
  | Uniform of Time.span * Time.span
      (** Half-open [[lo, hi)], like {!Power.Failure_injector}
          intervals; requires [lo <= hi], degenerating to [lo] when
          equal. *)
  | Exponential of Time.span  (** Mean of the exponential draw. *)

type config = {
  latency : latency;  (** one-way propagation delay per message *)
  bandwidth : float;
      (** serialisation rate in bytes/s; [0.] or [infinity] disables the
          serialisation delay *)
  drop_probability : float;
      (** per-message loss, sampled at {!send}; [0.] never consults the
          rng *)
}

val default : config
(** 25 µs constant one-way latency (a 50 µs RTT datacenter hop), 10 GbE
    serialisation (1.25 GB/s), no drops. *)

type 'a t

val create :
  Sim.t -> ?name:string -> config -> dummy:'a -> deliver:('a -> unit) -> 'a t
(** [create sim config ~dummy ~deliver] builds a link delivering into
    [deliver] (called from plain event context — it must not block;
    spawn or signal instead). [dummy] fills empty queue slots so the
    payload ring can be a flat array. [name] labels trace output.

    When {!Desim.Metrics} recording is on, per-message delay (send →
    deliver, µs) is observed into the ["net.link_delay"] histogram. *)

val send : 'a t -> ?bytes:int -> 'a -> unit
(** Enqueue a message; callable from any context, returns immediately.
    [bytes] (default 0) is the on-wire size charged against the link
    bandwidth. Messages may be dropped per [drop_probability], or
    silently discarded after {!sever}. *)

val partition : _ t -> unit
(** Stop delivering. In-flight and newly-sent messages queue up — the
    network holds them — until {!heal} or {!sever}. Idempotent. *)

val heal : _ t -> unit
(** Resume delivery. The held backlog flushes immediately (in FIFO
    order) where its delivery times already passed. Idempotent. *)

val partitioned : _ t -> bool

val sever : _ t -> unit
(** The peer is gone: discard everything queued and drop all future
    sends. Used for machine loss. Irreversible.

    Loss wins over partition: severing a link that is currently
    partitioned drops the partition state along with the held backlog —
    {!partitioned} reports [false] afterwards and a late {!heal} is a
    no-op. A machine loss scheduled inside an active outage therefore
    has one defined outcome: the dead node's links are severed, full
    stop. *)

(** {1 Counters} *)

val name : _ t -> string

val sent : _ t -> int
(** Messages accepted by {!send} (excluding post-{!sever} discards). *)

val delivered : _ t -> int

val dropped : _ t -> int
(** Losses: [drop_probability] drops plus messages discarded by
    {!sever}. *)

val in_flight : _ t -> int
(** Messages queued on the wire right now. *)
