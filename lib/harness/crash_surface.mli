(** Exhaustive crash-surface exploration.

    The sampled failure experiments ({!Experiment.run_failure}) draw a
    handful of random crash instants per configuration; an ordering bug
    that only bites in a narrow window — say, between a virtio ring
    publish and trusted-logger admission — would likely never be hit.
    This module turns the sampled evidence into systematic evidence: it
    replays a fixed-seed scenario once to {b enumerate every event
    boundary} inside a time window, then re-runs the scenario once per
    boundary (or every [stride]-th), injects a failure {b exactly} at
    that boundary, recovers from post-crash media, and audits.

    Determinism is what makes this sound: two simulations built from the
    same configuration execute identical event sequences, so an event
    index names the same instant in the enumeration replay and in the
    crash replay — {!run_point} cross-checks the clock against the
    enumerated timestamp and fails loudly if replay determinism is ever
    broken. Crash points are independent simulations, so {!sweep} fans
    them out over {!Parallel} with verdicts bit-identical to a serial
    sweep.

    Four crash kinds distinguish the failure modes the paper's claim 3
    covers, plus the one it does not: a guest-OS crash (the logger's
    drain simply continues), a mains power cut (the drain races the PSU
    hold-up window), a power cut under a deliberately tight
    residual-energy budget with a correspondingly small trusted buffer
    (the budget expires mid-activity, so window-expiry effects — torn
    in-flight writes, the halt just before device death — are actually
    exercised), and {b machine loss} — the whole primary vanishing with
    no residual window at all, the failure that bounds local RapiLog's
    durability domain and that only the replicated scenarios
    ([Rapilog_quorum], {!Net.Quorum}, from one replica at [k = 1] up)
    survive. *)

type kind = Os_crash | Power_cut | Power_cut_tight | Machine_loss

val kind_name : kind -> string
val kind_of_name : string -> kind option

val all_kinds : kind list
(** Every kind, including [Machine_loss]. *)

val default_kinds : kind list
(** The three single-machine kinds — what {!default} sweeps.
    [Machine_loss] is opt-in because local RapiLog is {e expected} to
    lose buffered commits to it; include it explicitly when sweeping a
    replicated scenario (or when measuring the local loss). *)

type config = {
  scenario : Scenario.config;
  window_start : Desim.Time.span;
      (** window opens this long after the load phase completes *)
  window_length : Desim.Time.span;
  stride : int;  (** explore every [stride]-th boundary; 1 = all *)
  kinds : kind list;
  tight_window : Desim.Time.span;
      (** PSU hold-up budget for [Power_cut_tight] *)
  tight_buffer_bytes : int;
      (** trusted-buffer size for [Power_cut_tight]; must fit the tight
          budget at the log device's streaming bandwidth or the
          configuration itself violates the logger's admission
          precondition *)
  media_digests : bool;
      (** compute {!verdict.v_media_crc} per point. Off by default: the
          digest walks the whole durable extent and exists to certify
          that full replay and journal reconstruction produced
          bit-identical post-crash media, not for timing runs. *)
}

val default : Scenario.config -> config
(** Window of 40 ms opening 5 ms after load, stride 1, the
    {!default_kinds}, 20 ms tight budget with a 128 KiB buffer. *)

type enumeration = {
  e_kind : kind;
  e_window_start_ns : int;
  e_window_end_ns : int;
  e_boundaries : int;  (** every event boundary inside the window *)
  e_candidates : (int * int) array;
      (** (event index, clock ns) of each boundary, already strided *)
}

val enumerate : config -> kind -> enumeration
(** One full replay of the scenario under [kind]'s effective
    configuration, recording each event boundary whose clock falls in
    [\[window_start, window_end)]. *)

type verdict = {
  v_kind : kind;
  v_event_index : int;  (** events executed when the failure was injected *)
  v_at_ns : int;  (** simulated clock at the injection boundary *)
  v_acked : int;  (** write txns acknowledged over the whole run *)
  v_lost : int;  (** acknowledged but not recovered — durability breaks *)
  v_extra : int;  (** durable but never acknowledged — always permitted *)
  v_state_exact : bool;
  v_diff_count : int;
  v_invariant_violations : int;
  v_buffered_at_cut : int;  (** trusted-buffer bytes at injection; -1 if no logger *)
  v_media_crc : int;
      (** digest of the post-crash durable media (log then data volume),
          computed through the {!Storage.Block} durable interface on
          whichever path produced the state — full replay or journal
          reconstruction; -1 when [media_digests] is off *)
  v_stats : Dbms.Recovery.replay_stats;
  v_tenant_acked : int;
      (** tenant entries acknowledged by the sharded tier over the whole
          run; 0 outside [Rapilog_sharded] mode *)
  v_tenant_lost : int;
      (** tenant entries acknowledged but absent from the merged
          per-shard recovery — per-tenant durability breaks *)
  v_tenant_extra : int;
      (** tenant entries durable but never acknowledged — permitted *)
  v_tenant_breaks : int;  (** tenants with at least one lost entry *)
  v_contract_ok : bool;
      (** the always-durable contract: nothing lost, state exact, zero
          runtime invariant violations — and, in [Rapilog_sharded] mode,
          zero tenants with lost entries. Expected true at {e every}
          point for RapiLog; expected false somewhere for the
          unprotected baselines — that asymmetry is the sweep's
          teeth. *)
}

val run_point : config -> kind -> event_index:int -> at_ns:int -> verdict
(** Re-run the scenario, stop at [event_index] executed events, verify
    the clock equals [at_ns] (replay-determinism cross-check; raises
    [Failure] otherwise), inject [kind]'s failure at that exact
    boundary, let the simulation settle, recover and audit. *)

type kind_summary = {
  k_kind : kind;
  k_boundaries : int;
  k_explored : int;
  k_contract_breaks : int;
  k_lost : int;  (** acknowledged-commit losses summed over the kind's points *)
}

type result = {
  r_mode : Scenario.mode;
  r_stride : int;
  r_kinds : kind_summary list;
  r_total_boundaries : int;
  r_explored : int;
  r_contract_breaks : int;
  r_lost_total : int;
  r_verdicts : verdict list;  (** kind-major, boundary order *)
}

val sweep : ?jobs:int -> config -> result
(** Enumerate each kind, then evaluate every candidate crash point on
    the {!Parallel} worker pool ([jobs] defaults to
    {!Parallel.default_jobs}, [RAPILOG_JOBS] overrides). Results are in
    deterministic kind-major boundary order and bit-identical to
    [~jobs:1]. *)

(** {2 Crash pairs and partition schedules}

    The quorum scenario ([Rapilog_quorum], {!Net.Quorum}) promises more
    than single-machine loss: the acknowledged prefix survives the
    primary {e plus} any [quorum - 1] replicas, partitions included. The
    pair sweep tests exactly that surface: for every (strided) ordered
    pair of boundary candidates [(t_i, t_j)] with [t_i <= t_j] and every
    schedule below, the first action lands {e exactly} at event boundary
    [i] (same replay-determinism clock cross-check as {!run_point}) and
    the second at clock instant [t_j] — time-targeted, because the first
    injection perturbs the event sequence, while the enumerated instant
    remains a well-defined point of the perturbed run. The
    killed/partitioned replica rotates over the pair grid as
    [(i + j) mod replicas]. Pair points always run as full replays: the
    journal engine reconstructs one machine's durable state and cannot
    synthesize the cluster's network. *)

type pair_schedule =
  | Primary_then_node
      (** primary machine-loss at [t_i], replica loss at [t_j] *)
  | Node_then_primary
      (** replica loss at [t_i], primary machine-loss at [t_j] *)
  | Partition_commit
      (** replica partitioned at [t_i], primary machine-loss at [t_j]
          with the partition still up — commits must have kept flowing
          through the rest of the quorum *)
  | Partition_heal
      (** replica partitioned at [t_i], healed at the midpoint, primary
          machine-loss at [t_j] — the flushed backlog must merge back
          deterministically *)

val pair_schedule_name : pair_schedule -> string
val pair_schedule_of_name : string -> pair_schedule option
val all_pair_schedules : pair_schedule list

type pair_verdict = {
  pv_schedule : pair_schedule;
  pv_first_event : int;
  pv_first_ns : int;
  pv_second_ns : int;
  pv_node : int;  (** the replica killed or partitioned *)
  pv_acked : int;
  pv_lost : int;
  pv_extra : int;
  pv_state_exact : bool;
  pv_invariant_violations : int;
  pv_elected : int;
      (** leader chosen by the recovery election; -1 if none was live *)
  pv_term : int;
  pv_election_quorate : bool;
      (** the election reached its adoption quorum — guaranteed at
          majority quorum under any single-replica loss, and exactly
          what an under-replicated cell forfeits *)
  pv_contract_ok : bool;
}

val run_pair_point :
  config ->
  schedule:pair_schedule ->
  first_event:int ->
  first_ns:int ->
  second_ns:int ->
  node:int ->
  pair_verdict
(** One pair point: replay to [first_event] (clock must equal
    [first_ns]), apply the schedule's first action there and its second
    at [second_ns], settle, recover through
    {!Scenario.recovery_log_device} (which runs the quorum election) and
    audit. Raises [Invalid_argument] unless the scenario is
    [Rapilog_quorum]. *)

type pair_summary = {
  ps_schedule : pair_schedule;
  ps_points : int;
  ps_breaks : int;
  ps_lost : int;
}

type pair_result = {
  pr_mode : Scenario.mode;
  pr_candidates : int;  (** boundary candidates on each axis *)
  pr_pairs : int;  (** ordered pairs available before pruning *)
  pr_points : int;  (** pair points actually run, all schedules *)
  pr_breaks : int;
  pr_lost_total : int;
  pr_schedules : pair_summary list;
  pr_verdicts : pair_verdict list;  (** schedule-major, grid order *)
}

val sweep_pairs :
  ?jobs:int -> config -> schedules:pair_schedule list -> target:int -> pair_result
(** Enumerate machine-loss boundaries once, form every ordered candidate
    pair, prune to ~[target] pairs by striding the flattened grid (both
    axes stay covered), and run every schedule over the same pair set on
    the {!Parallel} pool — deterministic order, bit-identical to
    [~jobs:1]. Raises [Invalid_argument] unless the scenario mode is
    [Rapilog_quorum]. *)

(** {2 Journal-based incremental sweep}

    {!sweep} costs one full scenario replay per crash point. The journal
    sweep replays each kind {e once} with {!Desim.Journal} recording
    enabled, then reconstructs every boundary's post-crash media
    incrementally from the journal — applying each durable delta exactly
    once across the whole sweep — and runs only recovery plus the audit
    per point. The trusted logger's part is not modelled: a
    {!Rapilog.Trusted_logger.Ring_state} replays the journaled pushes
    and pops, and at each point a copy of it takes the logger's own
    power-fail and drain. Soundness (determinism of the reference run, completeness
    of the journaled deltas, and the tie-break rules for writes racing
    the PSU window) is documented in the implementation and certified
    empirically by the differential oracle in the test suite and bench:
    with [media_digests] on, verdicts — including the media digest — are
    bit-identical to {!run_point}'s. *)

val journal_supported : Scenario.config -> bool
(** The journal reconstruction covers the Rapilog drain path onto a
    disk or NVMe log device with a dedicated log disk; other modes and
    devices fall back to {!sweep}. *)

val sweep_journal : ?jobs:int -> config -> result
(** Journal-based sweep over the same candidate set as {!sweep}, in the
    same deterministic kind-major boundary order. Raises
    [Invalid_argument] unless {!journal_supported}. Within a kind the
    candidate range is split into at most 16 contiguous chunks whose
    boundaries depend only on the candidate count, each chunk replays
    the journal prefix from scratch, so results are bit-identical at any
    [jobs]. *)
