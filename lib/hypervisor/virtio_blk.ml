open Desim

type backend = {
  be_info : Storage.Block.info;
  be_read : lba:int -> sectors:int -> string;
  be_write : lba:int -> data:string -> fua:bool -> unit;
  be_flush : unit -> unit;
  be_durable_read_into : lba:int -> sectors:int -> Bytes.t -> off:int -> unit;
  be_durable_extent : unit -> int;
}

let backend_of_block device =
  {
    be_info = Storage.Block.info device;
    be_read = (fun ~lba ~sectors -> Storage.Block.read device ~lba ~sectors);
    be_write = (fun ~lba ~data ~fua -> Storage.Block.write device ~fua ~lba data);
    be_flush = (fun () -> Storage.Block.flush device);
    be_durable_read_into = Storage.Block.durable_read_into device;
    be_durable_extent = (fun () -> Storage.Block.durable_extent device);
  }

type request =
  | Read of { lba : int; sectors : int; resume : string Process.resumer }
  | Write of { lba : int; data : string; fua : bool; resume : unit Process.resumer }
  | Flush of { resume : unit Process.resumer }

let worker ipc backend queue () =
  while true do
    match Channel.recv queue with
    | Read { lba; sectors; resume } ->
        let data = backend.be_read ~lba ~sectors in
        Ipc.pay_complete ipc;
        resume data
    | Write { lba; data; fua; resume } ->
        backend.be_write ~lba ~data ~fua;
        Ipc.pay_complete ipc;
        resume ()
    | Flush { resume } ->
        backend.be_flush ();
        Ipc.pay_complete ipc;
        resume ()
  done

let create sim ~ipc ~backend_domain ?(queue_depth = 8) backend =
  assert (queue_depth > 0);
  let queue = Channel.create sim in
  for i = 1 to queue_depth do
    ignore
      (Domain.spawn backend_domain
         ~name:(Printf.sprintf "virtio-be-%d" i)
         (worker ipc backend queue))
  done;
  let journal = Desim.Journal.recording () in
  let journal_id =
    match journal with
    | Some j ->
        Desim.Journal.register_port j
          ~model:("virtio:" ^ backend.be_info.Storage.Block.model)
    | None -> -1
  in
  (* [on_send] fires at the instant the request crosses into the backend
     queue — the point from which it survives a guest crash, which is
     why the journal stamps write submissions exactly here. *)
  let submit ?on_send make_request =
    Ipc.pay_submit ipc;
    Process.suspend (fun resume ->
        (match on_send with Some f -> f () | None -> ());
        Channel.send queue (make_request resume))
  in
  let stats = Storage.Disk_stats.create () in
  (* Frontend-observed write service (queue + IPC + backend), one stage
     histogram per attached device so the log path and the data path
     stay distinguishable in the breakdown. *)
  let m_write =
    Option.map
      (fun reg ->
        Desim.Metrics.histogram reg
          ("virtio.write:" ^ backend.be_info.Storage.Block.model))
      (Desim.Metrics.recording ())
  in
  let ops =
    {
      Storage.Block.op_read =
        (fun ~lba ~sectors ->
          let started = Sim.now sim in
          let data = submit (fun resume -> Read { lba; sectors; resume }) in
          Storage.Disk_stats.record_read stats ~sectors
            ~service:(Time.diff (Sim.now sim) started);
          data);
      op_write =
        (fun ~lba ~data ~fua ->
          let started = Sim.now sim in
          let sectors =
            String.length data / backend.be_info.Storage.Block.sector_size
          in
          let on_send =
            match journal with
            | Some j ->
                Some (fun () -> Desim.Journal.submit j sim ~port:journal_id ~lba ~sectors)
            | None -> None
          in
          submit ?on_send (fun resume -> Write { lba; data; fua; resume });
          let service = Time.diff (Sim.now sim) started in
          (match m_write with
          | Some h -> Desim.Metrics.Histogram.observe_span h service
          | None -> ());
          Storage.Disk_stats.record_write stats ~sectors ~service);
      op_flush =
        (fun () ->
          let started = Sim.now sim in
          submit (fun resume -> Flush { resume });
          Storage.Disk_stats.record_flush stats
            ~service:(Time.diff (Sim.now sim) started));
      op_power_cut = (fun () -> ());
      (* The frontend is software; electrical failure reaches the physical
         device through its own registration with the power domain. *)
      op_durable_read_into = backend.be_durable_read_into;
      op_durable_extent = backend.be_durable_extent;
    }
  in
  Storage.Block.make ~journal_id
    ~info:{ backend.be_info with Storage.Block.model = "virtio:" ^ backend.be_info.Storage.Block.model }
    ~stats ~ops ()
