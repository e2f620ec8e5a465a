(* Microbenchmarks of the hot code paths: these measure the
   implementation's wall-clock cost (not simulated time) and its
   minor-heap allocation, on the gates' own loop
   ({!Bench_support.per_op}), one row per operation. *)

let crc_payload = String.init 4096 (fun i -> Char.chr (i land 0xff))

let update_record =
  Dbms.Log_record.Update
    { txid = 42; key = 7; before = String.make 96 'b'; after = String.make 96 'a' }

let encoded_update = Dbms.Log_record.encode update_record

(* Each operation as a loop of [n] iterations over state built once. *)
let ops =
  [
    ( "crc32-4KiB",
      fun n ->
        for _ = 1 to n do
          ignore (Sys.opaque_identity (Dbms.Crc32.digest_string crc_payload))
        done );
    ( "log-record-encode",
      fun n ->
        for _ = 1 to n do
          ignore (Sys.opaque_identity (Dbms.Log_record.encode update_record))
        done );
    ( "log-record-decode",
      fun n ->
        for _ = 1 to n do
          ignore (Sys.opaque_identity (Dbms.Log_record.decode encoded_update ~pos:0))
        done );
    ( "ring-buffer-push-pop",
      let ring = Rapilog.Ring_buffer.create ~sector_size:512 ~capacity_bytes:(1 lsl 20) in
      let data = String.make 512 'r' in
      fun n ->
        for _ = 1 to n do
          ignore (Rapilog.Ring_buffer.try_push ring ~lba:0 ~data);
          ignore (Sys.opaque_identity (Rapilog.Ring_buffer.pop ring))
        done );
    ( "event-queue-add-pop",
      let q = Desim.Event_queue.create () and t = ref 0 in
      fun n ->
        for _ = 1 to n do
          incr t;
          Desim.Event_queue.add q ~time:(Desim.Time.of_ns !t) ();
          Desim.Event_queue.pop_min q
        done );
    ( "binary-heap-add-pop",
      let q = Desim.Binary_heap.create () and t = ref 0 in
      fun n ->
        for _ = 1 to n do
          incr t;
          Desim.Binary_heap.add q ~time:(Desim.Time.of_ns !t) ();
          Desim.Binary_heap.pop_min q
        done );
    ( "rng-bits64",
      let rng = Desim.Rng.create 1L in
      fun n ->
        for _ = 1 to n do
          ignore (Sys.opaque_identity (Desim.Rng.bits64 rng))
        done );
    ( "page-serialize-8KiB",
      let page = Dbms.Page.create ~id:1 in
      for key = 0 to 15 do
        Dbms.Page.set page ~key ~value:(String.make 96 'v') ~lsn:(Dbms.Lsn.of_int 1)
      done;
      fun n ->
        for _ = 1 to n do
          ignore (Sys.opaque_identity (Dbms.Page.serialize page ~page_bytes:8192))
        done );
    ( "sim-process-sleep",
      fun n ->
        let sim = Desim.Sim.create () in
        ignore
          (Desim.Process.spawn sim (fun () ->
               for _ = 1 to n do
                 Desim.Process.sleep (Desim.Time.us 1)
               done));
        Desim.Sim.run sim );
  ]

let experiment =
  {
    Bench_support.id = "micro-core-ops";
    title = "Core-operation microbenchmarks";
    description =
      "wall clock and allocation of event queue, sim step and logger hot paths";
    run =
      (fun ~quick ->
        Harness.Report.section "Core-operation microbenchmarks (wall clock)";
        let rows =
          List.map
            (fun (name, loop) ->
              let n = if quick then 20_000 else 200_000 in
              (* a first pass warms caches and grows queues *)
              loop n;
              let rate, words = Bench_support.per_op ~ops:n (fun () -> loop n) in
              [ name; Printf.sprintf "%.1f" (1e9 /. rate); Printf.sprintf "%.1f" words ])
            ops
        in
        Harness.Report.table ~columns:[ "operation"; "ns/op"; "words/op" ] ~rows);
  }
