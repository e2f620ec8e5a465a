(** RapiLog-Q: the trusted logger replicated to [n] nodes with a
    quorum-ack commit rule and an explicit leader-election protocol.

    This is the repository's one replication runtime. RapiLog-R — one
    replica machine — is its [n = 1] case: replica-ack is
    [{replicas = 1; quorum = 1}], async-replica is
    [{replicas = 1; quorum = 0}], and the local policy is plain
    [Rapilog] mode with no cluster attached.

    Two layers live here, deliberately:

    {b The protocol} ({!Protocol}) is a pure message-level state machine
    — messages [Append], [Ack], [Elect], [Adopt] over per-node mailboxes
    — small enough for [test_model_check.ml] to explore exhaustively.
    Its safety invariant is {e committed-prefix monotonicity}: once an
    entry is quorum-acked (committed), no later schedule of deliveries,
    losses or elections may lose it or replace it, as long as at most
    the tolerated number of nodes die (the leader plus [k - 1]
    replicas). The invariant is checkable after every step via
    {!Protocol.check}.

    {b The runtime} ([t] below) is the simulated deployment of the same
    rules: [n] {!Replica}s behind per-node FIFO {!Link} pairs, a commit
    hook at {!Rapilog.Trusted_logger} admission that parks the writer
    until [k] acks arrive, and a recovery path that runs the election
    over the live nodes' watermarks and merges their longest durable
    prefixes. The runtime election is executed {e by} the protocol state
    machine ({!handoff} seeds a {!Protocol.t} from the live cluster and
    runs campaign/adopt to completion), so the thing the model checker
    proves is the thing the simulator runs.

    Why the merge is safe: links are FIFO, so each replica holds a
    consecutive prefix [1..m] of the admitted stream. A quorum-acked
    seq [s] has been received by at least [k] replicas, each therefore
    holding all of [1..s]. Losing the primary and any [k - 1] replicas
    leaves at least one live replica whose prefix covers [s], and
    {!merge_prefix} (max over live consecutive prefixes) retains it. *)

open Desim

(** The message-level state machine, exhaustively checkable.

    One distinguished primary plus [replicas] numbered replicas. The
    leader (primary at first, an elected replica after handoff) appends
    entries to its log and sends [Append] to every live replica; a
    replica acks what it accepts; the leader commits an entry once [k]
    distinct replica acks for it arrive (the leader's own copy rides
    free). On leader death a replica campaigns: it needs [n - k + 1]
    adoptions (counting its own), which intersects every commit quorum,
    and a replica refuses to adopt a candidate whose [(term, seq)]
    watermark is behind its own — so no candidate missing a committed
    entry can win. A new leader re-establishes prefix matching wholesale
    by replaying its full log on fresh channels (the wire is not a
    durability domain: every channel is cleared when a leadership
    dies). *)
module Protocol : sig
  type entry = { e_term : int; e_seq : int }

  type msg =
    | Append of { lterm : int; entry : entry }
        (** leader → replica: accept [entry]; [lterm] is the leader's
            term *)
    | Ack of { acker : int; aterm : int; seq : int }
        (** replica → leader: [seq] accepted under term [aterm] *)
    | Elect of { cterm : int; candidate : int; wm_term : int; wm_seq : int }
        (** candidate → replica: adopt me for term [cterm]; my log
            watermark is [(wm_term, wm_seq)] *)
    | Adopt of { adopter : int; aterm : int }
        (** replica → candidate: adopted for term [aterm] *)

  type lead =
    | Primary  (** the original primary machine leads *)
    | Replica_leader of int  (** an elected replica leads *)
    | Candidate of int  (** an election is in flight *)
    | No_leader  (** the leadership died; nobody campaigned yet *)

  type t

  val create : replicas:int -> quorum:int -> t
  (** Fresh cluster: primary leading with an empty log, all replicas
      alive and empty, term 1. Requires
      [1 <= quorum <= replicas]. *)

  val copy : t -> t
  (** Independent snapshot, for model-check backtracking. *)

  val seed :
    t -> primary_len:int -> prefixes:int array -> committed:int -> term:int -> unit
  (** Overwrite the state with a mid-flight cluster: the primary holds
      entries [1..primary_len], replica [r] the prefix
      [1..prefixes.(r)], entries [1..committed] are quorum-acked, all
      under a single term. Used by the runtime to hand a live cluster's
      watermarks to the protocol for election. *)

  (** {2 Observers} *)

  val lead : t -> lead
  val term : t -> int

  val commit_watermark : t -> int
  (** Highest committed seq; monotone — the invariant under test. *)

  val committed : t -> entry list
  (** The committed prefix (oldest first) — a ghost variable: the
      checker's record of what was quorum-acked, never rewritten. *)

  val adopts : t -> int
  (** Adoptions the current candidate holds (counting itself). *)

  val adoption_quorum : t -> int
  (** [n - k + 1] — adoptions needed to take leadership. *)

  val primary_alive : t -> bool
  val node_alive : t -> int -> bool
  val node_term : t -> int -> int

  val node_log : t -> int -> entry list
  (** Replica [r]'s log, oldest first. *)

  val watermark : t -> int -> int * int
  (** Replica [r]'s [(term of last entry, log length)] — the quantity
      compared lexicographically by the vote rule. *)

  val inbox : t -> int -> msg list
  (** Replica [r]'s pending inbound messages, oldest first. *)

  val outbox : t -> int -> msg list
  (** Replica [r]'s pending responses (acks/adoptions), oldest first —
      in flight towards the leader/candidate. *)

  val best_candidate : t -> int option
  (** The live replica with the maximal watermark (lowest id on ties) —
      the candidate the runtime lets campaign. [None] if no replica is
      alive. *)

  (** {2 Operations}

      Each operation is guarded by a [can_] predicate; applying a
      disabled operation raises [Invalid_argument]. The model checker
      enumerates exactly the enabled operations at each state. *)

  val can_append : t -> bool
  val append : t -> entry
  (** The leader appends the next entry to its log and sends [Append]
      to every live replica. *)

  val can_deliver : t -> int -> bool
  val deliver : t -> int -> unit
  (** Replica [r] processes its oldest inbound message. [Append]:
      accept (extending, deduplicating, or truncate-and-replacing a
      conflicting suffix) and queue an [Ack]; stale terms are dropped.
      [Elect]: adopt iff the candidate's term is newer and its
      watermark is not behind [r]'s, else drop. *)

  val can_collect : t -> int -> bool
  val collect : t -> int -> unit
  (** The leader/candidate processes replica [r]'s oldest response.
      [Ack]: count towards commit; on the [k]-th distinct ack the
      committed watermark advances (prefix-closed by per-link FIFO).
      [Adopt]: count towards adoption; on the [n - k + 1]-th the
      candidate becomes leader, clears every channel and replays its
      full log to all live replicas. *)

  val can_lose_primary : t -> bool
  val lose_primary : t -> unit
  (** Machine loss of the primary: every channel is cleared (the wire
      is severed, not durable); if it led, leadership becomes
      {!No_leader}. *)

  val can_lose : t -> int -> bool
  val lose : t -> int -> unit
  (** Machine loss of replica [r]: its channels clear; if it led or was
      campaigning, leadership becomes {!No_leader} and every channel
      clears. *)

  val can_campaign : t -> int -> bool
  val campaign : t -> int -> unit
  (** Live replica [r] campaigns for the next term (max over live
      terms, plus one): every channel clears, [r] adopts itself and
      sends [Elect] to every live replica. With [k = n] the adoption
      quorum is 1 and [r] leads immediately. *)

  val check : t -> string list
  (** All invariant violations observable now, plus any recorded along
      the way (a committed entry truncated or rewritten): a committed
      entry held by no live node, or missing from an established
      leader's log. Empty ⇔ the committed prefix is intact. *)
end

(** {1 The simulated runtime} *)

type config = {
  replicas : int;  (** number of replica nodes, [>= 1] *)
  quorum : int;
      (** acks required to commit, [0 <= quorum <= replicas]. At [0]
          the commit waits for no replica (async replication): entries
          are still sent, but the commit watermark advances at send. *)
  links : Link.config list;
      (** per-replica one-way link shape (used for both the data and
          ack direction of node [i], cycling if shorter than
          [replicas]); empty means {!Link.default} everywhere.
          Asymmetric lists model fast/slow replicas — the teeth of the
          under-replicated control cell. Every link must be lossless
          ([drop_probability = 0]): there is no retransmit. *)
}

val default : config
(** 3 replicas, majority quorum (2), default links. *)

val majority : int -> int
(** [majority n] = [n / 2 + 1]. *)

val config_errors : config -> string list
(** Every reason {!attach} would reject [config], empty if none:
    [replicas < 1], a quorum outside [0 <= quorum <= replicas], and
    each link (by its index in [links]) with [drop_probability > 0] —
    a replica acks entries past a gap and nothing retransmits, so one
    lost entry or ack would park every later commit forever. *)

val merge_prefix :
  (int * int * string) list list -> (int * int * string) list
(** [merge_prefix per_node_entries] — each inner list a node's received
    [(seq, lba, data)] stream — takes each node's longest consecutive
    prefix [1..m] and unions them by seq, yielding the cluster's
    longest recoverable prefix in seq order. Idempotent and insensitive
    to the order of the node lists; the result covers every seq held by
    any node's consecutive prefix, hence every quorum-acked seq as long
    as one covering node is in the list. *)

type election = {
  el_term : int;  (** term the election concluded (or stalled) at *)
  el_leader : int;  (** elected replica id, [-1] if none was live *)
  el_adopters : int;  (** adoptions collected, counting the candidate *)
  el_quorum : bool;
      (** the adoption quorum [n - k + 1] was reached — recovery merged
          a prefix guaranteed to cover every quorum-acked commit. When
          false, recovery still merges best-effort (this is where an
          under-replicated cell loses). *)
}

type t

val attach :
  Sim.t ->
  config ->
  logger:Rapilog.Trusted_logger.t ->
  make_device:(int -> Storage.Block.t) ->
  t
(** Wire the quorum cluster into [logger]'s admission path: every
    admitted entry is sent on all live data links and the admitting
    writer parks until [quorum] acks arrive (at [quorum = 0] it never
    parks). [make_device i] builds replica [i]'s log device (a separate
    failure domain — do not register it with the primary's power
    domain). Raises [Invalid_argument] listing {!config_errors} if
    there are any.

    With {!Desim.Metrics} recording on, the hook observes
    ["logger.replicate"] (whole hook) and ["logger.quorum_wait"] (park
    time until the k-th ack). *)

val config : t -> config
val node_replica : t -> int -> Replica.t
val live_nodes : t -> int list

val commit_seq : t -> int
(** Highest quorum-acked seq; at [quorum = 0], the highest seq sent. *)

val sent : t -> int
(** Entries pushed into the replication hook. *)

val acks : t -> int
(** Total acks delivered back (across all nodes and seqs). *)

val wire_in_flight : t -> int

val primary_lost : t -> unit
(** Machine loss of the primary: {e every} link in the cluster is
    severed — in-flight appends and acks die with the wire. Parked
    writers never resume (their machine is gone). *)

val node_lost : t -> int -> unit
(** Machine loss of replica [i]: its links sever (dropping any held
    partition backlog — loss wins over partition, see {!Link.sever});
    its acks no longer count toward quorums. *)

val partition_node : t -> int -> unit
(** Partition replica [i] off: both its links hold traffic. *)

val heal_node : t -> int -> unit
(** Heal replica [i]'s partition; the held backlog flushes in order. *)

val node_partitioned : t -> int -> bool

val handoff : t -> election
(** Elect a new leader among the live replicas by running the
    {!Protocol} state machine seeded with the cluster's current
    watermarks: the best candidate campaigns, live replicas vote by the
    watermark rule, and the result is recorded as {!last_election}.
    Re-runnable: each handoff bumps the term, so a second election
    (e.g. the elected leader dies too) concludes at a strictly higher
    term. Raises if a quorate election's protocol run ends with a
    violated invariant (it cannot, and we want to hear about it if it
    does).

    At [quorum = 0] no commit waited for an ack, so there is no commit
    quorum to intersect and no protocol run: the live replica with the
    longest prefix takes over at the next term with [el_adopters = 0]
    and [el_quorum = false]. *)

val last_election : t -> election option

val recovery_log_device : t -> primary:Storage.Block.t -> Storage.Block.t
(** The recovered log: the primary's frozen durable media overlaid with
    {!merge_prefix} of the live nodes' received entries. If the primary
    is dead, runs {!handoff} first so the election verdict is on
    record; the merge itself is the same either way (and with the
    primary alive the overlay can only add entries the primary already
    admitted). *)
