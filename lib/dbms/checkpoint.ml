open Desim

type config = { interval : Time.span }

let default_config = { interval = Time.sec 1 }

let run_once ~wal ~pool =
  List.iter (Buffer_pool.flush_page pool) (Buffer_pool.dirty_pages pool);
  (* The redo point is computed after the flush: every earlier update is
     now in a page image, and pages re-dirtied during the flush carry a
     conservative rec_lsn from {!Buffer_pool.flush_page}. *)
  let redo_lsn =
    match Buffer_pool.min_rec_lsn pool with
    | Some lsn -> lsn
    | None -> Wal.end_lsn wal
  in
  let lsn = Wal.append wal (Log_record.Checkpoint { redo_lsn }) in
  Wal.force wal lsn;
  Wal.write_master wal redo_lsn;
  redo_lsn

let loop config ~wal ~pool () =
  while true do
    Process.sleep config.interval;
    ignore (run_once ~wal ~pool)
  done

let start sim config ~wal ~pool =
  assert (Time.compare_span config.interval Time.zero_span > 0);
  Process.spawn sim ~name:"checkpointer" (loop config ~wal ~pool)

let start_in_domain domain config ~wal ~pool =
  assert (Time.compare_span config.interval Time.zero_span > 0);
  Hypervisor.Domain.spawn domain ~name:"checkpointer" (loop config ~wal ~pool)
