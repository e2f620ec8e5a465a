(** Runtime verification of the trusted logger.

    The paper's argument delegates the logger's correctness to formal
    verification; this module is the simulation-side analogue — a
    monitor that continuously checks the properties the proof would
    establish, so that any modelling bug surfaces as a named violation
    rather than a silently wrong experiment:

    - {b capacity}: buffered bytes never exceed the configured buffer;
    - {b monotonicity}: acknowledged and drained byte counts never go
      backwards;
    - {b conservation}: the drain never retires more bytes than were
      admitted into the ring, and nothing is acknowledged that was not
      admitted (the bound is admitted rather than acknowledged bytes
      because a replicated logger drains entries whose writers are
      still waiting on the remote acks — see {!Net.Quorum});
    - {b admission closed}: after a power-fail notification, nothing
      further is ever acknowledged. *)

type violation = { at : Desim.Time.t; invariant : string; detail : string }

type t

val attach :
  Desim.Sim.t ->
  ?interval:Desim.Time.span ->
  Trusted_logger.t ->
  t
(** Spawn a monitor polling every [interval] (default 1 ms). The monitor
    runs outside any guest domain — like the property it checks, it must
    survive the guest. It reschedules itself forever: bound the
    simulation with [Sim.run ~until] or call {!stop} when done. *)

val stop : t -> unit
(** Cancel the monitor process; checks performed so far remain
    queryable. *)

val violations : t -> violation list
(** Oldest first; empty means every check passed so far. *)

val ok : t -> bool
(** No violations so far. *)

val checks_performed : t -> int
(** Number of polling rounds completed — evidence the monitor actually
    ran alongside the experiment. *)
