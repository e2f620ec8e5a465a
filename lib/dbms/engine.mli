(** The storage engine: transactions over the WAL, buffer pool and lock
    table.

    Transactions are executed by {!exec}: the write set is locked in key
    order (strict 2PL, deadlock-free by ordering), updates are logged
    with before/after images and applied to buffer-pool pages, and commit
    appends a commit record and forces the WAL. With the profile's group
    commit enabled, concurrent commits batch into one log write; with it
    disabled, commits serialise one flush each.

    Values must be non-empty (an empty before-image encodes "key absent"
    in the log). Aborts log compensating updates before the abort record,
    so recovery's redo-history/undo-losers scheme stays exact. *)

type op =
  | Put of { key : int; value : string }  (** value must be non-empty *)
  | Get of { key : int }
  | Delete of { key : int }

type txn_result = {
  txid : int;
  writes : (int * string option) list;
      (** committed (key, value) pairs in key order; [None] is a delete *)
  reads : (int * string option) list;
  latency : Desim.Time.span;  (** begin to commit-ack *)
}

type t

val create :
  vmm:Hypervisor.Vmm.t ->
  profile:Engine_profile.t ->
  ?async_commit:bool ->
  ?first_txid:int ->
  wal:Wal.t ->
  pool:Buffer_pool.t ->
  unit ->
  t
(** [async_commit] (default false) makes commit acknowledge without
    forcing the log — PostgreSQL's [synchronous_commit = off]. The
    caller is expected to run a background WAL writer (see
    {!spawn_wal_writer}); recently acknowledged transactions are lost on
    any crash, which is exactly the baseline's deal. *)

val spawn_wal_writer :
  t -> Hypervisor.Domain.t -> interval:Desim.Time.span -> Desim.Process.handle
(** Background process forcing the WAL every [interval] (the
    [wal_writer_delay] of the async-commit configuration). *)

val profile : t -> Engine_profile.t
val wal : t -> Wal.t
val pool : t -> Buffer_pool.t

val exec : t -> op list -> txn_result
(** Run one transaction to commit. Must run in a (guest) process.
    Within a transaction all reads execute before all writes (the write
    set is locked and applied in key order), so a [Get] observes the
    pre-transaction value even if the same list also writes the key. *)

val exec_abort : t -> op list -> int
(** Run the transaction's updates, then roll it back; returns the txid.
    For failure-path tests. *)

val committed_count : t -> int
val aborted_count : t -> int
val latencies : t -> Desim.Stats.Sample.t
(** Commit latencies in microseconds. *)

val log_bytes_per_txn : t -> float
(** Mean log-stream bytes generated per committed transaction. *)
