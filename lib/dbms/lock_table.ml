open Desim

(* [owner] is [free] when no transaction holds the key; txids are
   positive. *)
type slot = {
  mutable owner : int;
  waiters : (int * unit Process.resumer) Queue.t;
}

type t = { sim : Sim.t; slots : slot Int_table.t }

let free = 0
let create sim = { sim; slots = Int_table.create 1024 }

let slot_of t key =
  match Int_table.find_opt t.slots key with
  | Some slot -> slot
  | None ->
      let slot = { owner = free; waiters = Queue.create () } in
      Int_table.replace t.slots key slot;
      slot

let lock t ~txid ~key =
  assert (txid <> free);
  let slot = slot_of t key in
  if slot.owner = free then slot.owner <- txid
  else if slot.owner <> txid then
    Process.suspend (fun resumer -> Queue.push (txid, resumer) slot.waiters)

let try_lock t ~txid ~key =
  assert (txid <> free);
  let slot = slot_of t key in
  if slot.owner = free then begin
    slot.owner <- txid;
    true
  end
  else slot.owner = txid

let unlock t ~txid ~key =
  match Int_table.find_opt t.slots key with
  | None -> assert false
  | Some slot -> (
      assert (slot.owner = txid);
      match Queue.take_opt slot.waiters with
      | Some (next_txid, resumer) ->
          slot.owner <- next_txid;
          Sim.schedule_now t.sim (fun () -> resumer ())
      | None ->
          slot.owner <- free;
          Int_table.remove t.slots key)

let unlock_all t ~txid ~keys = List.iter (fun key -> unlock t ~txid ~key) keys

let owner t ~key =
  match Int_table.find_opt t.slots key with
  | Some slot when slot.owner <> free -> Some slot.owner
  | Some _ | None -> None

let locked_count t =
  Int_table.fold (fun _ slot acc -> if slot.owner = free then acc else acc + 1) t.slots 0
