(** Commit-flush batching policies.

    The WAL's force mutex already yields structural group commit: while
    one force's device write is in flight, later committers queue on the
    mutex and the next force covers all of them in one write. A policy
    decides whether a force {e leader} additionally waits before
    writing, to gather a larger batch:

    - [Serial]: no batching at all — the engine serialises commits and
      issues one physical write each (the no-group-commit baseline).
    - [Fixed n]: wait for [n] pending committers, up to a fixed cap
      ({!fixed_wait_cap_ns}). [Fixed 1] never waits and is the classic
      mutex-structured group commit — byte-identical to the behaviour
      before policies existed. A fixed batch target sized for a disk
      wastes its whole wait on a µs-latency device, which is precisely
      what the adaptive policy repairs.
    - [Adaptive {target_ns; max_batch}]: size the wait against the
      {e measured} device write latency (an EWMA maintained by the WAL).
      When the EWMA is at or below [target_ns] the device is fast enough
      that batching cannot pay — commit immediately; otherwise gather up
      to [max_batch] committers but never wait longer than one EWMA
      device write. *)

type t =
  | Serial
  | Fixed of int
  | Adaptive of { target_ns : int; max_batch : int }

val default : t
(** [Fixed 1]: mutex-structured group commit, no deliberate wait. *)

val quantum_ns : int
(** Polling granularity of a batching wait, in nanoseconds. *)

val fixed_wait_cap_ns : int
(** Upper bound on a [Fixed] policy's gather wait. *)

val decide : t -> ewma_ns:int -> pending:int -> waited_ns:int -> int
(** [decide policy ~ewma_ns ~pending ~waited_ns] is the leader's
    batching decision: [0] means issue the device write now, a positive
    value means sleep that many nanoseconds and re-evaluate. Pure
    integer arithmetic, zero allocation (checked by the [engine] bench gate). *)

val ewma_update : prev:int -> obs:int -> int
(** One EWMA step over observed device-write latency (α = 1/8, integer
    shift); [obs] seeds the average when [prev = 0]. Allocation-free. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
