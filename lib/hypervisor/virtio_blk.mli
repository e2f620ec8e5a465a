(** Paravirtualised split block driver.

    The guest-side frontend presents an ordinary {!Storage.Block.t}; each
    request pays the {!Ipc} submission cost, travels over a queue to a
    pool of backend worker processes running in the backend domain, and
    the completion pays the {!Ipc} completion cost before waking the
    guest process.

    Requests already queued when the guest crashes are still serviced by
    the backend (the queue lives outside the guest); their completions
    wake nobody. This mirrors the real split-driver structure, and it is
    what lets RapiLog's trusted logger keep log data that the guest had
    already handed over. *)

type backend = {
  be_info : Storage.Block.info;
  be_read : lba:int -> sectors:int -> string;
  be_write : lba:int -> data:string -> fua:bool -> unit;
  be_flush : unit -> unit;
  be_durable_read_into : lba:int -> sectors:int -> Bytes.t -> off:int -> unit;
  be_durable_extent : unit -> int;
}

val backend_of_block : Storage.Block.t -> backend
(** Pass-through backend exposing a physical device (the plain
    virtualised-disk configuration). *)

val create :
  Desim.Sim.t ->
  ipc:Ipc.cost ->
  backend_domain:Domain.t ->
  ?queue_depth:int ->
  backend ->
  Storage.Block.t
(** [queue_depth] (default 8) backend workers service requests
    concurrently; a physical-device backend serialises internally anyway,
    while the RapiLog logger backend benefits from the concurrency. *)
