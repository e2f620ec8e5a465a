type status = Active | Committed | Aborted

type t = {
  id : int;
  mutable status : status;
  mutable locks : int list;
  mutable undo : (int * string) list;
}

let txid t = t.id
let status t = t.status
let locked_keys t = t.locks
let undo_log t = t.undo
let record_lock t key = t.locks <- key :: t.locks
let record_update t ~key ~before = t.undo <- (key, before) :: t.undo
let set_status t status = t.status <- status

module Manager = struct
  type nonrec txn = t

  type t = {
    mutable next_txid : int;
    active : txn Desim.Int_table.t;
    mutable committed : int;
    mutable aborted : int;
  }

  let create ?(first_txid = 1) () =
    assert (first_txid >= 1);
    { next_txid = first_txid; active = Desim.Int_table.create 64; committed = 0; aborted = 0 }

  let begin_txn t =
    let txn = { id = t.next_txid; status = Active; locks = []; undo = [] } in
    t.next_txid <- t.next_txid + 1;
    Desim.Int_table.replace t.active txn.id txn;
    txn

  let finish t txn status =
    assert (status <> Active);
    txn.status <- status;
    Desim.Int_table.remove t.active txn.id;
    match status with
    | Committed -> t.committed <- t.committed + 1
    | Aborted -> t.aborted <- t.aborted + 1
    | Active -> assert false

  let active_count t = Desim.Int_table.length t.active
  let started t = t.next_txid - 1
  let committed t = t.committed
  let aborted t = t.aborted
end
