(* Tests for the database engine substrate: log records, WAL, locks,
   buffer pool, checkpointing, and crash recovery. *)

open Desim
open Testu
open Dbms

(* -- Crc32 ------------------------------------------------------------- *)

let crc32_known_vector () =
  (* The classic check value for CRC-32/ISO-HDLC. *)
  Alcotest.(check int32) "123456789" 0xCBF43926l (Crc32.digest_string "123456789")

let crc32_empty () = Alcotest.(check int32) "empty" 0l (Crc32.digest_string "")

let crc32_slice_consistency () =
  let s = "hello, durable world" in
  Alcotest.(check int32) "slice = sub"
    (Crc32.digest s ~pos:7 ~len:7)
    (Crc32.digest_string (String.sub s 7 7))

let crc32_detects_bitflip () =
  let a = Crc32.digest_string "log record payload" in
  let b = Crc32.digest_string "log recOrd payload" in
  Alcotest.(check bool) "differs" true (a <> b)

let crc32_fold_bytes state bytes =
  Bytes.fold_left (fun crc c -> Crc32.update_byte crc (Char.code c)) state bytes

let crc32_word_updates_prop =
  prop "word updates equal folding update_byte over their bytes" ~count:500
    QCheck2.Gen.(triple (map (fun x -> x land 0xFFFFFFFF) int) int (int_range 0 40))
    (fun (state, v, zeros) ->
      let le32 = Bytes.create 4 and le64 = Bytes.create 8 in
      Bytes.set_int32_le le32 0 (Int32.of_int v);
      Bytes.set_int64_le le64 0 (Int64.of_int v);
      Crc32.update_u32 state v = crc32_fold_bytes state le32
      && Crc32.update_u64 state v = crc32_fold_bytes state le64
      && Crc32.update_zeros state zeros
         = crc32_fold_bytes state (Bytes.make zeros '\000'))

(* -- Lsn ---------------------------------------------------------------- *)

let lsn_ops () =
  let l = Lsn.of_int 100 in
  Alcotest.(check int) "add" 164 (Lsn.to_int (Lsn.add l 64));
  Alcotest.(check bool) "lt" true Lsn.(Lsn.zero < l);
  Alcotest.(check bool) "le self" true Lsn.(l <= l);
  Alcotest.(check int) "max" 100 (Lsn.to_int (Lsn.max l (Lsn.of_int 50)));
  Alcotest.(check int) "min" 50 (Lsn.to_int (Lsn.min l (Lsn.of_int 50)))

(* -- Log_record ---------------------------------------------------------- *)

let all_record_kinds =
  [
    Log_record.Begin { txid = 7 };
    Log_record.Update { txid = 7; key = 42; before = "old"; after = "new-value" };
    Log_record.Update { txid = 8; key = 0; before = ""; after = "first-touch" };
    Log_record.Commit { txid = 7 };
    Log_record.Abort { txid = 9 };
    Log_record.Checkpoint { redo_lsn = Lsn.of_int 12345 };
    Log_record.Noop { filler = 100 };
  ]

let record_roundtrip_all_kinds () =
  List.iter
    (fun record ->
      let encoded = Log_record.encode record in
      Alcotest.(check int) "size matches" (Log_record.encoded_size record)
        (String.length encoded);
      match Log_record.decode encoded ~pos:0 with
      | Some (decoded, size) ->
          Alcotest.(check int) "consumed all" (String.length encoded) size;
          if decoded <> record then
            Alcotest.failf "roundtrip mismatch for %s"
              (Format.asprintf "%a" Log_record.pp record)
      | None -> Alcotest.failf "failed to decode %s" (Format.asprintf "%a" Log_record.pp record))
    all_record_kinds

let record_roundtrip_prop =
  prop "update records roundtrip for arbitrary payloads"
    QCheck2.Gen.(
      quad (int_range 0 1_000_000) (int_range 0 1_000_000)
        (string_size (int_range 0 300))
        (string_size (int_range 0 300)))
    (fun (txid, key, before, after) ->
      let record = Log_record.Update { txid; key; before; after } in
      match Log_record.decode (Log_record.encode record) ~pos:0 with
      | Some (decoded, _) -> decoded = record
      | None -> false)

let record_decode_bad_magic () =
  let encoded = Bytes.of_string (Log_record.encode (Log_record.Commit { txid = 1 })) in
  Bytes.set encoded 0 '\255';
  Alcotest.(check bool) "rejected" true
    (Log_record.decode (Bytes.to_string encoded) ~pos:0 = None)

let record_decode_corrupt_body () =
  let encoded =
    Bytes.of_string
      (Log_record.encode (Log_record.Update { txid = 1; key = 2; before = "aa"; after = "bb" }))
  in
  Bytes.set encoded (Bytes.length encoded - 1) 'Z';
  Alcotest.(check bool) "crc catches corruption" true
    (Log_record.decode (Bytes.to_string encoded) ~pos:0 = None)

let record_decode_truncated () =
  let encoded = Log_record.encode (Log_record.Commit { txid = 1 }) in
  let truncated = String.sub encoded 0 (String.length encoded - 3) in
  Alcotest.(check bool) "truncation rejected" true
    (Log_record.decode truncated ~pos:0 = None)

let record_decode_at_offset () =
  let a = Log_record.encode (Log_record.Begin { txid = 1 }) in
  let b = Log_record.encode (Log_record.Commit { txid = 1 }) in
  match Log_record.decode (a ^ b) ~pos:(String.length a) with
  | Some (Log_record.Commit { txid }, _) -> Alcotest.(check int) "second record" 1 txid
  | Some _ | None -> Alcotest.fail "expected the commit record"

let stream_stops_at_torn_tail () =
  let buf = Buffer.create 256 in
  List.iter (fun r -> Log_record.encode_into r buf) all_record_kinds;
  let whole = Buffer.contents buf in
  (* Tear the last record. *)
  let torn = String.sub whole 0 (String.length whole - 5) in
  let records = Log_record.decode_stream torn in
  Alcotest.(check int) "all but the torn one"
    (List.length all_record_kinds - 1)
    (List.length records);
  (* End LSNs are cumulative sizes. *)
  let expected_end =
    List.fold_left (fun acc r -> acc + Log_record.encoded_size r) 0
      (List.filteri (fun i _ -> i < List.length all_record_kinds - 1) all_record_kinds)
  in
  match List.rev records with
  | (_, lsn) :: _ -> Alcotest.(check int) "end lsn" expected_end (Lsn.to_int lsn)
  | [] -> Alcotest.fail "no records"

let stream_stops_at_zeros () =
  let good = Log_record.encode (Log_record.Commit { txid = 3 }) in
  let padded = good ^ String.make 512 '\000' in
  Alcotest.(check int) "zero padding is end of log" 1
    (List.length (Log_record.decode_stream padded))

let record_oversized_rejected () =
  (* A header claiming a body longer than max_body must be rejected. *)
  let buf = Bytes.make 32 '\000' in
  Bytes.set_uint16_le buf 0 0xA55A;
  Bytes.set_uint8 buf 2 6;
  Bytes.set_int32_le buf 3 (Int32.of_int (Log_record.max_body + 1));
  Alcotest.(check bool) "rejected" true
    (Log_record.decode (Bytes.to_string buf) ~pos:0 = None)

(* -- Page ----------------------------------------------------------------- *)

let page_roundtrip () =
  let page = Page.create ~id:3 in
  Page.set page ~key:48 ~value:"hello" ~lsn:(Lsn.of_int 10);
  Page.set page ~key:49 ~value:"world" ~lsn:(Lsn.of_int 20);
  let image = Page.serialize page ~page_bytes:8192 in
  Alcotest.(check int) "image padded to page size" 8192 (String.length image);
  match Page.deserialize image with
  | Some decoded ->
      Alcotest.(check int) "id" 3 decoded.Page.id;
      Alcotest.(check int) "page_lsn" 20 (Lsn.to_int decoded.Page.page_lsn);
      Alcotest.(check (option string)) "value" (Some "hello") (Page.get decoded ~key:48);
      Alcotest.(check bool) "clean after load" false (Page.is_dirty decoded)
  | None -> Alcotest.fail "deserialize failed"

let page_roundtrip_prop =
  prop "pages roundtrip arbitrary contents"
    QCheck2.Gen.(
      list_size (int_range 0 16)
        (pair (int_range 0 1000) (string_size (int_range 1 100))))
    (fun entries ->
      let page = Page.create ~id:1 in
      List.iter
        (fun (key, value) -> Page.set page ~key ~value ~lsn:(Lsn.of_int 5))
        entries;
      match Page.deserialize (Page.serialize page ~page_bytes:8192) with
      | Some decoded ->
          List.for_all
            (fun (key, _) -> Page.get decoded ~key = Page.get page ~key)
            entries
      | None -> false)

(* One image byte for byte, captured from the implementation that
   staged entries in a side buffer: the on-device format is fixed, so
   any change to how the image is built must reproduce it. *)
let page_golden_image () =
  let page = Page.create ~id:7 in
  List.iter
    (fun (key, value) -> Page.set page ~key ~value ~lsn:(Lsn.of_int 4242))
    [ (127, "a longer value, stored last"); (112, "alpha"); (113, ""); (120, "\x00\xff\x10") ];
  let golden =
    "454741500700000000000000921000000000000004000000528e35837000000000000000\
     05000000616c70686171000000000000000000000078000000000000000300000000ff10\
     7f000000000000001b00000061206c6f6e6765722076616c75652c2073746f726564206c\
     617374"
  in
  let image = Page.serialize page ~page_bytes:512 in
  let used = String.length golden / 2 in
  Alcotest.(check int) "image size" 512 (String.length image);
  Alcotest.(check string) "entries region" golden
    (String.concat ""
       (List.init used (fun i -> Printf.sprintf "%02x" (Char.code image.[i]))));
  Alcotest.(check string) "zero padding" (String.make (512 - used) '\000')
    (String.sub image used (512 - used))

let page_torn_image_rejected () =
  let page = Page.create ~id:1 in
  Page.set page ~key:5 ~value:"payload" ~lsn:(Lsn.of_int 1);
  let image = Bytes.of_string (Page.serialize page ~page_bytes:8192) in
  Bytes.set image 40 'X';
  Alcotest.(check bool) "crc rejects" true (Page.deserialize (Bytes.to_string image) = None)

let page_unwritten_rejected () =
  Alcotest.(check bool) "zeros are not a page" true
    (Page.deserialize (String.make 8192 '\000') = None)

let page_key_mapping () =
  Alcotest.(check int) "key 0" 0 (Page.page_of_key ~keys_per_page:16 0);
  Alcotest.(check int) "key 15" 0 (Page.page_of_key ~keys_per_page:16 15);
  Alcotest.(check int) "key 16" 1 (Page.page_of_key ~keys_per_page:16 16);
  Alcotest.(check (pair int int)) "range of page 2" (32, 48)
    (Page.keys_of_page ~keys_per_page:16 2)

let page_overflow_raises () =
  let page = Page.create ~id:1 in
  for key = 0 to 15 do
    Page.set page ~key ~value:(String.make 700 'x') ~lsn:(Lsn.of_int 1)
  done;
  Alcotest.check_raises "too big"
    (Invalid_argument "Page.serialize: contents exceed page size") (fun () ->
      ignore (Page.serialize page ~page_bytes:8192))

(* -- Wal -------------------------------------------------------------------- *)

let ssd_wal sim =
  let dev = Storage.Ssd.create sim Storage.Ssd.default in
  (Wal.create sim Wal.default_config ~device:dev, dev)

(* Commit records forced one by one, well past the 64 KiB the WAL keeps
   before it compacts, with no checkpoint; then a few left unforced. *)
let wal_memory_bounded () =
  run_in_sim (fun sim ->
      let wal, _ = ssd_wal sim in
      for txid = 1 to 20_000 do
        Wal.force wal (Wal.append wal (Log_record.Commit { txid }))
      done;
      for txid = 20_001 to 20_030 do
        ignore (Wal.append wal (Log_record.Commit { txid }))
      done;
      let held = String.length (Wal.stream_contents wal) in
      let unforced = Lsn.to_int (Wal.end_lsn wal) - Lsn.to_int (Wal.flushed_lsn wal) in
      let bound = 65536 + 512 + unforced in
      Alcotest.(check bool)
        (Printf.sprintf "holds %d of %d bytes (bound %d)" held
           (Lsn.to_int (Wal.end_lsn wal)) bound)
        true (held <= bound);
      Alcotest.(check int) "held bytes end at the stream end"
        (Lsn.to_int (Wal.end_lsn wal))
        (Lsn.to_int (Wal.base_lsn wal) + held))

let wal_compaction_keeps_media_log () =
  run_in_sim (fun sim ->
      let wal, dev = ssd_wal sim in
      let header = Log_record.encoded_size (Log_record.Noop { filler = 0 }) in
      let writes () = Storage.Disk_stats.writes (Storage.Block.stats dev) in
      (* Every force ends on a sector boundary (a commit, then a filler
         up to the boundary), so the WAL compacts at an aligned
         [flushed_lsn]; a force with nothing new must still rewrite the
         whole sector before it. *)
      for txid = 1 to 300 do
        ignore (Wal.append wal (Log_record.Commit { txid }));
        let filler = (512 - ((Lsn.to_int (Wal.end_lsn wal) + header) mod 512)) mod 512 in
        Wal.force wal (Wal.append wal (Log_record.Noop { filler }));
        let before = writes () in
        Wal.force_exclusive wal;
        if writes () <> before + 1 then
          Alcotest.failf "after commit %d: the tail sector was not rewritten" txid
      done;
      Alcotest.(check bool) "compacted" true (Lsn.to_int (Wal.base_lsn wal) > 0);
      let records = Recovery.scan_records ~log_device:dev ~wal_config:Wal.default_config in
      Alcotest.(check (list int)) "every record on media"
        (List.init 300 (fun i -> i + 1))
        (List.filter_map
           (function
             | Log_record.Commit { txid }, _ -> Some txid
             | Log_record.Noop _, _ -> None
             | _ -> Alcotest.fail "unexpected record")
           records))

let wal_append_then_force_durable () =
  run_in_sim (fun sim ->
      let wal, dev = ssd_wal sim in
      let lsn = Wal.append wal (Log_record.Begin { txid = 1 }) in
      Alcotest.(check int) "nothing durable yet" 0 (Lsn.to_int (Wal.flushed_lsn wal));
      Wal.force wal lsn;
      Alcotest.(check bool) "flushed to the append point" true
        Lsn.(lsn <= Wal.flushed_lsn wal);
      let raw = Recovery.read_durable_log ~log_device:dev ~wal_config:Wal.default_config in
      match Log_record.decode_stream raw with
      | [ (Log_record.Begin { txid }, _) ] -> Alcotest.(check int) "on media" 1 txid
      | records -> Alcotest.failf "unexpected records: %d" (List.length records))

let wal_force_is_idempotent () =
  run_in_sim (fun sim ->
      let wal, dev = ssd_wal sim in
      let lsn = Wal.append wal (Log_record.Commit { txid = 1 }) in
      Wal.force wal lsn;
      Wal.force wal lsn;
      Wal.force wal Lsn.zero;
      Alcotest.(check int) "exactly one device write" 1
        (Storage.Disk_stats.writes (Storage.Block.stats dev)))

let wal_partial_sector_rewrite () =
  run_in_sim (fun sim ->
      let wal, dev = ssd_wal sim in
      (* Two forces that share a sector: the second must rewrite the
         partial tail, and the decoded stream must contain both. *)
      let l1 = Wal.append wal (Log_record.Begin { txid = 1 }) in
      Wal.force wal l1;
      let l2 = Wal.append wal (Log_record.Commit { txid = 1 }) in
      Wal.force wal l2;
      let raw = Recovery.read_durable_log ~log_device:dev ~wal_config:Wal.default_config in
      match Log_record.decode_stream raw with
      | [ (Log_record.Begin _, _); (Log_record.Commit _, e2) ] ->
          Alcotest.(check int) "stream complete" (Lsn.to_int l2) (Lsn.to_int e2)
      | records -> Alcotest.failf "got %d records" (List.length records))

let wal_group_commit_batches () =
  let sim = Sim.create () in
  (* Use a slow disk so that concurrent committers pile up behind the
     first force. *)
  let dev = Storage.Hdd.create sim Storage.Hdd.default_7200rpm in
  let wal = Wal.create sim Wal.default_config ~device:dev in
  let committers = 8 in
  let done_count = ref 0 in
  for i = 1 to committers do
    ignore
      (Process.spawn sim (fun () ->
           let lsn = Wal.append wal (Log_record.Commit { txid = i }) in
           Wal.force wal lsn;
           incr done_count))
  done;
  Sim.run sim;
  Alcotest.(check int) "all committed" committers !done_count;
  Alcotest.(check bool)
    (Printf.sprintf "fewer forces than committers (%d)" (Wal.forces wal))
    true
    (Wal.forces wal < committers)

let wal_master_block_roundtrip () =
  run_in_sim (fun sim ->
      let wal, dev = ssd_wal sim in
      Wal.write_master wal (Lsn.of_int 9876);
      Alcotest.(check (option int)) "read back" (Some 9876)
        (Option.map Lsn.to_int (Wal.read_master Wal.default_config ~device:dev)))

let wal_master_absent () =
  run_in_sim (fun sim ->
      let _, dev = ssd_wal sim in
      Alcotest.(check bool) "no master yet" true
        (Wal.read_master Wal.default_config ~device:dev = None))

let wal_master_corrupt () =
  run_in_sim (fun sim ->
      let wal, dev = ssd_wal sim in
      Wal.write_master wal (Lsn.of_int 1);
      (* Overwrite the master sector with garbage. *)
      Storage.Block.write dev ~lba:Wal.default_config.Wal.master_lba
        (String.make 512 'g');
      Alcotest.(check bool) "rejected" true
        (Wal.read_master Wal.default_config ~device:dev = None))

let wal_force_bytes_recorded () =
  run_in_sim (fun sim ->
      let wal, _ = ssd_wal sim in
      let lsn = Wal.append wal (Log_record.Noop { filler = 2000 }) in
      Wal.force wal lsn;
      Alcotest.(check int) "one batch" 1 (Stats.Sample.count (Wal.force_bytes wal));
      check_near "sector-rounded size" 2048. (Stats.Sample.mean (Wal.force_bytes wal)))

(* -- Lock_table --------------------------------------------------------------- *)

let locks_exclusive_and_fifo () =
  let sim = Sim.create () in
  let locks = Lock_table.create sim in
  let order = ref [] in
  let contender txid delay () =
    Process.sleep delay;
    Lock_table.lock locks ~txid ~key:1;
    order := txid :: !order;
    Process.sleep (Time.ms 2);
    Lock_table.unlock locks ~txid ~key:1
  in
  ignore (Process.spawn sim (contender 1 Time.zero_span));
  ignore (Process.spawn sim (contender 2 (Time.us 10)));
  ignore (Process.spawn sim (contender 3 (Time.us 20)));
  Sim.run sim;
  Alcotest.(check (list int)) "FIFO grants" [ 1; 2; 3 ] (List.rev !order)

let locks_reentrant () =
  run_in_sim (fun sim ->
      let locks = Lock_table.create sim in
      Lock_table.lock locks ~txid:1 ~key:5;
      Lock_table.lock locks ~txid:1 ~key:5;
      Alcotest.(check (option int)) "owner" (Some 1) (Lock_table.owner locks ~key:5))

let locks_try_lock () =
  run_in_sim (fun sim ->
      let locks = Lock_table.create sim in
      Alcotest.(check bool) "free" true (Lock_table.try_lock locks ~txid:1 ~key:2);
      Alcotest.(check bool) "held by other" false (Lock_table.try_lock locks ~txid:2 ~key:2);
      Alcotest.(check bool) "reentrant" true (Lock_table.try_lock locks ~txid:1 ~key:2))

let locks_unlock_all () =
  run_in_sim (fun sim ->
      let locks = Lock_table.create sim in
      List.iter (fun key -> Lock_table.lock locks ~txid:1 ~key) [ 1; 2; 3 ];
      Alcotest.(check int) "held" 3 (Lock_table.locked_count locks);
      Lock_table.unlock_all locks ~txid:1 ~keys:[ 1; 2; 3 ];
      Alcotest.(check int) "released" 0 (Lock_table.locked_count locks))

(* -- Txn ------------------------------------------------------------------------ *)

let txn_manager_lifecycle () =
  let mgr = Txn.Manager.create () in
  let t1 = Txn.Manager.begin_txn mgr in
  let t2 = Txn.Manager.begin_txn mgr in
  Alcotest.(check int) "ids increase" (Txn.txid t1 + 1) (Txn.txid t2);
  Alcotest.(check int) "active" 2 (Txn.Manager.active_count mgr);
  Txn.Manager.finish mgr t1 Txn.Committed;
  Txn.Manager.finish mgr t2 Txn.Aborted;
  Alcotest.(check int) "none active" 0 (Txn.Manager.active_count mgr);
  Alcotest.(check int) "committed" 1 (Txn.Manager.committed mgr);
  Alcotest.(check int) "aborted" 1 (Txn.Manager.aborted mgr);
  Alcotest.(check int) "started" 2 (Txn.Manager.started mgr)

let txn_undo_log_order () =
  let mgr = Txn.Manager.create () in
  let t = Txn.Manager.begin_txn mgr in
  Txn.record_update t ~key:1 ~before:"a";
  Txn.record_update t ~key:2 ~before:"b";
  Alcotest.(check (list (pair int string))) "newest first" [ (2, "b"); (1, "a") ]
    (Txn.undo_log t)

(* -- Buffer_pool ------------------------------------------------------------------ *)

let pool_fixture sim =
  (* The pool tests fabricate page LSNs, so the WAL-force hook is a stub;
     the WAL-before-data ordering has its own probe test below. *)
  let dev = Storage.Ssd.create sim Storage.Ssd.default in
  let config = { Buffer_pool.default_config with capacity_pages = 4 } in
  let pool = Buffer_pool.create sim config ~device:dev ~wal_force:(fun ~page:_ _ -> ()) in
  (pool, dev, ())

let pool_miss_then_hit () =
  run_in_sim (fun sim ->
      let pool, _, _ = pool_fixture sim in
      Buffer_pool.with_page pool ~key:1 (fun _ -> ());
      Buffer_pool.with_page pool ~key:2 (fun _ -> ());
      (* keys 1 and 2 share page 0 *)
      Alcotest.(check int) "one miss" 1 (Buffer_pool.misses pool);
      Alcotest.(check int) "one hit" 1 (Buffer_pool.hits pool))

let pool_capacity_bounded () =
  run_in_sim (fun sim ->
      let pool, _, _ = pool_fixture sim in
      for page = 0 to 9 do
        Buffer_pool.with_page pool ~key:(page * 16) (fun _ -> ())
      done;
      Alcotest.(check bool) "capacity respected" true (Buffer_pool.cached_pages pool <= 4);
      Alcotest.(check bool) "evictions happened" true (Buffer_pool.evictions pool > 0))

let pool_dirty_page_flushed_on_eviction () =
  run_in_sim (fun sim ->
      let pool, dev, _ = pool_fixture sim in
      Buffer_pool.with_page pool ~key:0 (fun page ->
          Page.set page ~key:0 ~value:"dirty" ~lsn:(Lsn.of_int 8);
          Buffer_pool.mark_dirty pool page ~lsn:(Lsn.of_int 8));
      (* Dirty five more pages: with everything dirty, eviction must
         write a victim back. *)
      for page = 1 to 5 do
        Buffer_pool.with_page pool ~key:(page * 16) (fun p ->
            Page.set p ~key:(page * 16) ~value:"d" ~lsn:(Lsn.of_int 9);
            Buffer_pool.mark_dirty pool p ~lsn:(Lsn.of_int 9))
      done;
      (* The dirty page reached the device... *)
      Alcotest.(check bool) "written back" true (Buffer_pool.page_writes pool >= 1);
      (* ...and reads back with its contents. *)
      Buffer_pool.with_page pool ~key:0 (fun page ->
          Alcotest.(check (option string)) "value preserved" (Some "dirty")
            (Page.get page ~key:0));
      ignore dev)

let pool_wal_before_data () =
  run_in_sim (fun sim ->
      let dev = Storage.Ssd.create sim Storage.Ssd.default in
      let forced_to = ref Lsn.zero in
      let config = { Buffer_pool.default_config with capacity_pages = 4 } in
      let pool =
        Buffer_pool.create sim config ~device:dev ~wal_force:(fun ~page:_ lsn -> forced_to := lsn)
      in
      Buffer_pool.with_page pool ~key:0 (fun page ->
          Page.set page ~key:0 ~value:"v" ~lsn:(Lsn.of_int 77);
          Buffer_pool.mark_dirty pool page ~lsn:(Lsn.of_int 77);
          Buffer_pool.flush_page pool page);
      Alcotest.(check int) "WAL forced to page LSN first" 77 (Lsn.to_int !forced_to))

let pool_flush_clean_is_noop () =
  run_in_sim (fun sim ->
      let pool, dev, _ = pool_fixture sim in
      Buffer_pool.with_page pool ~key:0 (fun page -> Buffer_pool.flush_page pool page);
      Alcotest.(check int) "no write" 0
        (Storage.Disk_stats.writes (Storage.Block.stats dev)))

let pool_min_rec_lsn () =
  run_in_sim (fun sim ->
      let pool, _, _ = pool_fixture sim in
      Alcotest.(check bool) "none when clean" true (Buffer_pool.min_rec_lsn pool = None);
      Buffer_pool.with_page pool ~key:0 (fun page ->
          Buffer_pool.mark_dirty pool page ~lsn:(Lsn.of_int 30));
      Buffer_pool.with_page pool ~key:16 (fun page ->
          Buffer_pool.mark_dirty pool page ~lsn:(Lsn.of_int 20));
      Alcotest.(check (option int)) "minimum" (Some 20)
        (Option.map Lsn.to_int (Buffer_pool.min_rec_lsn pool)))

let pool_fresh_allocation_no_read () =
  run_in_sim (fun sim ->
      let pool, dev, _ = pool_fixture sim in
      Buffer_pool.with_page pool ~key:100_000 (fun _ -> ());
      Alcotest.(check int) "no device read for a fresh page" 0
        (Storage.Disk_stats.reads (Storage.Block.stats dev)))

(* -- Engine + Checkpoint + Recovery (integration) ---------------------------------- *)

type rig = {
  sim : Sim.t;
  vmm : Hypervisor.Vmm.t;
  engine : Engine.t;
  wal : Wal.t;
  pool : Buffer_pool.t;
  log_dev : Storage.Block.t;
  data_dev : Storage.Block.t;
}

let make_rig ?(seed = 1L) ?(profile = Engine_profile.postgres_like) () =
  let sim = Sim.create ~seed () in
  let vmm = Hypervisor.Vmm.create sim Hypervisor.Vmm.native in
  let log_dev = Storage.Ssd.create sim Storage.Ssd.default in
  let data_dev = Storage.Ssd.create sim Storage.Ssd.default in
  let wal = Wal.create sim Wal.default_config ~device:log_dev in
  let pool =
    Buffer_pool.create sim Buffer_pool.default_config ~device:data_dev
      ~wal_force:(fun ~page:_ lsn -> Wal.force wal lsn)
  in
  let engine = Engine.create ~vmm ~profile ~wal ~pool () in
  { sim; vmm; engine; wal; pool; log_dev; data_dev }

let recover rig =
  Recovery.run ~log_device:rig.log_dev ~data_device:rig.data_dev
    ~wal_config:Wal.default_config ~pool_config:Buffer_pool.default_config

let in_guest rig body = ignore (Hypervisor.Vmm.spawn_guest rig.vmm body)

let engine_commit_recovers () =
  let rig = make_rig () in
  in_guest rig (fun () ->
      ignore
        (Engine.exec rig.engine
           [ Engine.Put { key = 1; value = "alpha" }; Engine.Put { key = 2; value = "beta" } ]));
  Sim.run rig.sim;
  let r = recover rig in
  Alcotest.(check int) "one committed" 1 (List.length r.Recovery.committed);
  Alcotest.(check (option string)) "key 1" (Some "alpha") (Hashtbl.find_opt r.Recovery.store 1);
  Alcotest.(check (option string)) "key 2" (Some "beta") (Hashtbl.find_opt r.Recovery.store 2)

let engine_uncommitted_not_recovered () =
  let rig = make_rig () in
  (* Crash the guest before the commit record can be forced: the
     transaction must be a loser. *)
  in_guest rig (fun () ->
      ignore (Engine.exec rig.engine [ Engine.Put { key = 5; value = "committed" } ]);
      ignore (Engine.exec rig.engine [ Engine.Put { key = 5; value = "in-flight" } ]));
  (* The first txn takes ~455us of CPU+log force; kill during the second. *)
  Sim.schedule_after rig.sim (Time.us 700) (fun () ->
      Hypervisor.Vmm.crash_guest rig.vmm);
  Sim.run rig.sim;
  let r = recover rig in
  Alcotest.(check (option string)) "first value survives" (Some "committed")
    (Hashtbl.find_opt r.Recovery.store 5)

let engine_abort_leaves_no_trace () =
  let rig = make_rig () in
  in_guest rig (fun () ->
      ignore (Engine.exec rig.engine [ Engine.Put { key = 9; value = "keep" } ]);
      ignore (Engine.exec_abort rig.engine [ Engine.Put { key = 9; value = "discard" } ]);
      (* Force the log so the abort and its compensations are durable. *)
      Wal.force rig.wal (Wal.end_lsn rig.wal));
  Sim.run rig.sim;
  let r = recover rig in
  Alcotest.(check (option string)) "value untouched" (Some "keep")
    (Hashtbl.find_opt r.Recovery.store 9);
  Alcotest.(check int) "abort recorded" 1 (List.length r.Recovery.aborted)

let engine_abort_of_fresh_key_removes_it () =
  let rig = make_rig () in
  in_guest rig (fun () ->
      ignore (Engine.exec_abort rig.engine [ Engine.Put { key = 77; value = "ghost" } ]);
      Wal.force rig.wal (Wal.end_lsn rig.wal));
  Sim.run rig.sim;
  let r = recover rig in
  Alcotest.(check (option string)) "no ghost key" None (Hashtbl.find_opt r.Recovery.store 77)

let engine_abort_visible_in_memory () =
  let rig = make_rig () in
  let seen = ref None in
  in_guest rig (fun () ->
      ignore (Engine.exec rig.engine [ Engine.Put { key = 4; value = "original" } ]);
      ignore (Engine.exec_abort rig.engine [ Engine.Put { key = 4; value = "rolled-back" } ]);
      let r = Engine.exec rig.engine [ Engine.Get { key = 4 } ] in
      seen := List.assoc_opt 4 (List.map (fun (k, v) -> (k, v)) r.Engine.reads)
      );
  Sim.run rig.sim;
  Alcotest.(check (option (option string))) "rollback applied in memory"
    (Some (Some "original")) !seen

let engine_read_only_skips_log_device () =
  let rig = make_rig () in
  in_guest rig (fun () ->
      ignore (Engine.exec rig.engine [ Engine.Get { key = 123 } ]));
  Sim.run rig.sim;
  Alcotest.(check int) "no log writes" 0
    (Storage.Disk_stats.writes (Storage.Block.stats rig.log_dev));
  Alcotest.(check int) "still counted as committed" 1 (Engine.committed_count rig.engine)

let engine_group_commit_vs_serialised () =
  let run_mode group_commit =
    let profile =
      Engine_profile.with_group_commit Engine_profile.postgres_like group_commit
    in
    let sim = Sim.create () in
    let vmm = Hypervisor.Vmm.create sim Hypervisor.Vmm.native in
    let log_dev = Storage.Hdd.create sim Storage.Hdd.default_7200rpm in
    let data_dev = Storage.Ssd.create sim Storage.Ssd.default in
    let wal = Wal.create sim Wal.default_config ~device:log_dev in
    let pool =
      Buffer_pool.create sim Buffer_pool.default_config ~device:data_dev
        ~wal_force:(fun ~page:_ lsn -> Wal.force wal lsn)
    in
    let engine = Engine.create ~vmm ~profile ~wal ~pool () in
    for i = 0 to 7 do
      ignore
        (Hypervisor.Vmm.spawn_guest vmm (fun () ->
             ignore (Engine.exec engine [ Engine.Put { key = i; value = "x" } ])))
    done;
    Sim.run sim;
    Wal.forces wal
  in
  let grouped = run_mode true in
  let serialised = run_mode false in
  Alcotest.(check bool)
    (Printf.sprintf "group commit batches (%d < %d)" grouped serialised)
    true
    (grouped < serialised);
  Alcotest.(check int) "serialised = one force per txn" 8 serialised

let engine_latencies_recorded () =
  let rig = make_rig () in
  in_guest rig (fun () ->
      for i = 1 to 5 do
        ignore (Engine.exec rig.engine [ Engine.Put { key = i; value = "v" } ])
      done);
  Sim.run rig.sim;
  Alcotest.(check int) "five samples" 5 (Stats.Sample.count (Engine.latencies rig.engine));
  Alcotest.(check bool) "positive latency" true
    (Stats.Sample.mean (Engine.latencies rig.engine) > 0.)

let engine_log_bytes_per_txn () =
  let rig = make_rig () in
  in_guest rig (fun () ->
      ignore (Engine.exec rig.engine [ Engine.Put { key = 1; value = "abc" } ]));
  Sim.run rig.sim;
  Alcotest.(check bool) "positive" true (Engine.log_bytes_per_txn rig.engine > 0.)

let checkpoint_roundtrip () =
  let rig = make_rig () in
  in_guest rig (fun () ->
      ignore (Engine.exec rig.engine [ Engine.Put { key = 3; value = "persisted" } ]);
      ignore (Checkpoint.run_once ~wal:rig.wal ~pool:rig.pool));
  Sim.run rig.sim;
  (* The checkpoint must have written the page image and the master. *)
  Alcotest.(check bool) "page image written" true
    (Storage.Disk_stats.writes (Storage.Block.stats rig.data_dev) >= 1);
  let r = recover rig in
  Alcotest.(check bool) "master set" true Lsn.(Lsn.zero < r.Recovery.redo_start);
  Alcotest.(check (option string)) "state via checkpoint + redo" (Some "persisted")
    (Hashtbl.find_opt r.Recovery.store 3)

let checkpoint_bounds_redo_work () =
  let rig = make_rig () in
  in_guest rig (fun () ->
      for i = 1 to 20 do
        ignore (Engine.exec rig.engine [ Engine.Put { key = i; value = "pre" } ])
      done;
      ignore (Checkpoint.run_once ~wal:rig.wal ~pool:rig.pool);
      for i = 1 to 5 do
        ignore (Engine.exec rig.engine [ Engine.Put { key = i; value = "post" } ])
      done);
  Sim.run rig.sim;
  let r = recover rig in
  (* Only the 5 post-checkpoint updates (plus their meta padding) need
     redo; the 20 earlier ones are covered by page images. *)
  Alcotest.(check bool)
    (Printf.sprintf "redo bounded (%d <= 5)" r.Recovery.redo_applied)
    true
    (r.Recovery.redo_applied <= 5);
  for i = 1 to 5 do
    Alcotest.(check (option string)) "post value" (Some "post")
      (Hashtbl.find_opt r.Recovery.store i)
  done;
  for i = 6 to 20 do
    Alcotest.(check (option string)) "pre value" (Some "pre")
      (Hashtbl.find_opt r.Recovery.store i)
  done

let recovery_empty_devices () =
  let rig = make_rig () in
  let r = recover rig in
  Alcotest.(check int) "no records" 0 r.Recovery.durable_records;
  Alcotest.(check int) "empty store" 0 (Hashtbl.length r.Recovery.store);
  Alcotest.(check (list int)) "no committed" [] r.Recovery.committed

let recovery_exactness_prop =
  (* For random small workloads with a mid-run crash, recovery equals the
     acked-commit expectation exactly. *)
  prop "recovery is state-exact under random crash points" ~count:25
    QCheck2.Gen.(pair (int_range 1 10_000) (int_range 50 2_000))
    (fun (seed, crash_us) ->
      let rig = make_rig ~seed:(Int64.of_int seed) () in
      let model = Hashtbl.create 64 in
      let acked = ref [] in
      let rng = Rng.create (Int64.of_int (seed + 1)) in
      in_guest rig (fun () ->
          for _ = 1 to 50 do
            let key = Rng.int rng 20 in
            let value = Printf.sprintf "v%d" (Rng.int rng 1000) in
            let result = Engine.exec rig.engine [ Engine.Put { key; value } ] in
            acked := result.Engine.txid :: !acked;
            Hashtbl.replace model key value
          done);
      Sim.schedule_after rig.sim (Time.us crash_us) (fun () ->
          Hypervisor.Vmm.crash_guest rig.vmm);
      Sim.run rig.sim;
      let r = recover rig in
      let report =
        Rapilog.Durability.compare_txids ~committed:!acked
          ~recovered:r.Recovery.committed
      in
      Rapilog.Durability.holds report)

(* Recovery reads the devices' durable images and must not write them:
   running it twice over the same media has to produce the identical
   result, or a first (crashed or abandoned) recovery attempt would
   change what a second one sees. *)
let recovery_is_idempotent () =
  let rig = make_rig ~seed:77L () in
  in_guest rig (fun () ->
      for i = 1 to 30 do
        ignore
          (Engine.exec rig.engine
             [ Engine.Put { key = i mod 7; value = Printf.sprintf "v%d" i } ])
      done);
  (* Crash mid-run so recovery has real work: winners, losers, undo. *)
  Sim.schedule_after rig.sim (Time.ms 5) (fun () ->
      Hypervisor.Vmm.crash_guest rig.vmm);
  Sim.run rig.sim;
  let first = recover rig in
  let second = recover rig in
  Alcotest.(check bool) "replay stats identical" true
    (Recovery.stats first = Recovery.stats second);
  Alcotest.(check (list int)) "committed identical" first.Recovery.committed
    second.Recovery.committed;
  Alcotest.(check (list int)) "aborted identical" first.Recovery.aborted
    second.Recovery.aborted;
  Alcotest.(check (list int)) "losers identical" first.Recovery.losers
    second.Recovery.losers;
  Alcotest.(check int) "store sizes identical"
    (Hashtbl.length first.Recovery.store)
    (Hashtbl.length second.Recovery.store);
  Hashtbl.iter
    (fun key value ->
      Alcotest.(check (option string))
        (Printf.sprintf "key %d identical" key)
        (Some value)
        (Hashtbl.find_opt second.Recovery.store key))
    first.Recovery.store

let suites =
  [
    ( "dbms.crc32",
      [
        case "known check value" crc32_known_vector;
        case "empty string" crc32_empty;
        case "slice consistency" crc32_slice_consistency;
        case "detects bit flips" crc32_detects_bitflip;
        crc32_word_updates_prop;
      ] );
    ("dbms.lsn", [ case "arithmetic and comparisons" lsn_ops ]);
    ( "dbms.log_record",
      [
        case "all kinds roundtrip" record_roundtrip_all_kinds;
        record_roundtrip_prop;
        case "bad magic rejected" record_decode_bad_magic;
        case "corrupt body rejected" record_decode_corrupt_body;
        case "truncation rejected" record_decode_truncated;
        case "decode at offset" record_decode_at_offset;
        case "stream stops at torn tail" stream_stops_at_torn_tail;
        case "stream stops at zero padding" stream_stops_at_zeros;
        case "oversized length claim rejected" record_oversized_rejected;
      ] );
    ( "dbms.page",
      [
        case "serialize/deserialize roundtrip" page_roundtrip;
        case "golden image" page_golden_image;
        page_roundtrip_prop;
        case "torn image rejected" page_torn_image_rejected;
        case "unwritten slot rejected" page_unwritten_rejected;
        case "key to page mapping" page_key_mapping;
        case "overflow raises" page_overflow_raises;
      ] );
    ( "dbms.wal",
      [
        case "append buffers, force persists" wal_append_then_force_durable;
        case "force is idempotent" wal_force_is_idempotent;
        case "partial sector rewrite" wal_partial_sector_rewrite;
        case "group commit batches concurrent commits" wal_group_commit_batches;
        case "master block roundtrip" wal_master_block_roundtrip;
        case "master absent on fresh device" wal_master_absent;
        case "corrupt master rejected" wal_master_corrupt;
        case "force batch sizes recorded" wal_force_bytes_recorded;
        case "forced commits keep wal memory bounded" wal_memory_bounded;
        case "compaction keeps every record on media" wal_compaction_keeps_media_log;
      ] );
    ( "dbms.lock_table",
      [
        case "exclusive with FIFO queueing" locks_exclusive_and_fifo;
        case "reentrant for the owner" locks_reentrant;
        case "try_lock" locks_try_lock;
        case "unlock_all" locks_unlock_all;
      ] );
    ( "dbms.txn",
      [
        case "manager lifecycle" txn_manager_lifecycle;
        case "undo log is newest-first" txn_undo_log_order;
      ] );
    ( "dbms.buffer_pool",
      [
        case "miss then hit" pool_miss_then_hit;
        case "capacity bounded with eviction" pool_capacity_bounded;
        case "dirty page flushed on eviction" pool_dirty_page_flushed_on_eviction;
        case "WAL forced before data write" pool_wal_before_data;
        case "flushing a clean page is a no-op" pool_flush_clean_is_noop;
        case "min_rec_lsn over dirty set" pool_min_rec_lsn;
        case "fresh allocation does no read" pool_fresh_allocation_no_read;
      ] );
    ( "dbms.engine",
      [
        case "committed transaction recovers" engine_commit_recovers;
        case "uncommitted transaction does not" engine_uncommitted_not_recovered;
        case "abort leaves no trace" engine_abort_leaves_no_trace;
        case "abort of fresh key removes it" engine_abort_of_fresh_key_removes_it;
        case "abort rolls back in memory" engine_abort_visible_in_memory;
        case "read-only commits skip the log device" engine_read_only_skips_log_device;
        case "group commit batches, serialised does not"
          engine_group_commit_vs_serialised;
        case "latencies recorded" engine_latencies_recorded;
        case "log bytes per txn" engine_log_bytes_per_txn;
      ] );
    ( "dbms.recovery",
      [
        case "checkpoint roundtrip" checkpoint_roundtrip;
        case "checkpoint bounds redo work" checkpoint_bounds_redo_work;
        case "empty devices" recovery_empty_devices;
        recovery_exactness_prop;
        case "recovery is idempotent" recovery_is_idempotent;
      ] );
  ]

(* -- Chunked log scan (appended) --------------------------------------------- *)

let scan_matches_decode_stream () =
  let rig = make_rig () in
  in_guest rig (fun () ->
      for i = 1 to 30 do
        ignore (Engine.exec rig.engine [ Engine.Put { key = i; value = "scan" } ])
      done);
  Sim.run rig.sim;
  let chunked = Recovery.scan_records ~log_device:rig.log_dev ~wal_config:Wal.default_config in
  let whole =
    Log_record.decode_stream
      (Recovery.read_durable_log ~log_device:rig.log_dev ~wal_config:Wal.default_config)
  in
  Alcotest.(check int) "same record count" (List.length whole) (List.length chunked);
  Alcotest.(check bool) "identical records" true (chunked = whole)

let scan_ignores_far_away_data_region () =
  (* Single-disk layout: page images live megabytes past the log. The
     chunked scan must stop at the end of the log instead of reading (or
     misparsing) the data region. *)
  let sim = Sim.create () in
  let dev = Storage.Ssd.create sim Storage.Ssd.default in
  let wal = Wal.create sim Wal.default_config ~device:dev in
  ignore
    (Process.spawn sim (fun () ->
         let lsn = Wal.append wal (Log_record.Commit { txid = 1 }) in
         Wal.force wal lsn;
         (* A page image far up the same device. *)
         let page = Page.create ~id:0 in
         Page.set page ~key:1 ~value:"data" ~lsn:(Lsn.of_int 1);
         Storage.Block.write dev ~lba:1_048_576 (Page.serialize page ~page_bytes:8192)));
  Sim.run sim;
  let records = Recovery.scan_records ~log_device:dev ~wal_config:Wal.default_config in
  Alcotest.(check int) "just the log record" 1 (List.length records)

let scan_empty_device () =
  let sim = Sim.create () in
  let dev = Storage.Ssd.create sim Storage.Ssd.default in
  Alcotest.(check int) "no records" 0
    (List.length (Recovery.scan_records ~log_device:dev ~wal_config:Wal.default_config))

(* Synthetic logs for the multi-chunk scan cases: Begin/Update/commit
   triples written straight onto media, with value sizes drawn from a
   seeded generator. [big] makes one value in eight a few hundred KiB, so
   records much longer than a sector cross chunk boundaries. Returns the
   encoded stream and each record's (start, end) offsets. *)
let scan_sector = 512
let scan_chunk_bytes = Recovery.scan_chunk_sectors * scan_sector

let synthetic_log ?(big = true) ?(streams = 1) ?(home = 0) ~seed ~bytes () =
  let rng = Rng.create seed in
  let buf = Buffer.create (bytes + Log_record.max_body) in
  let spans = ref [] in
  let add record =
    let start = Buffer.length buf in
    Log_record.encode_into record buf;
    spans := (start, Buffer.length buf) :: !spans
  in
  let txid = ref ((home * 1_000_000) + 1) in
  while Buffer.length buf < bytes do
    let size =
      if big && Rng.int rng 8 = 0 then 200_000 + Rng.int rng 400_000
      else 1 + Rng.int rng 4_000
    in
    let key = (home * 1_000_000) + Rng.int rng 500 in
    add (Log_record.Begin { txid = !txid });
    add
      (Log_record.Update
         { txid = !txid; key; before = ""; after = String.make size 'v' });
    (if streams = 1 then add (Log_record.Commit { txid = !txid })
     else
       (* The home dependency is the commit record's own end LSN; the
          other streams' are 0, always inside their durable prefix. *)
       let deps = Array.make streams 0 in
       let commit = Log_record.Commit_multi { txid = !txid; deps } in
       deps.(home) <- Buffer.length buf + Log_record.encoded_size commit;
       add commit);
    incr txid
  done;
  (Buffer.contents buf, List.rev !spans)

let media_with ~sectors regions =
  let media =
    Storage.Block.Media.create ~sector_size:scan_sector ~capacity_sectors:sectors
  in
  List.iter
    (fun (lba, bytes) ->
      let len = (String.length bytes + scan_sector - 1) / scan_sector * scan_sector in
      let data = bytes ^ String.make (len - String.length bytes) '\000' in
      Storage.Block.Media.write media ~lba ~data)
    regions;
  media

let scan_vs_whole_log dev =
  let wal_config = Wal.default_config in
  ( Recovery.scan_records ~log_device:dev ~wal_config,
    Log_record.decode_stream (Recovery.read_durable_log ~log_device:dev ~wal_config) )

let scan_multi_chunk_straddling () =
  let log, spans = synthetic_log ~seed:41L ~bytes:(7 * scan_chunk_bytes / 2) () in
  let chunks = (String.length log + scan_chunk_bytes - 1) / scan_chunk_bytes in
  Alcotest.(check bool) "longer than 3 chunks" true (chunks > 3);
  (* Byte 0 of the log sits at [log_start_lba], so chunk boundaries are
     multiples of the chunk size in log offsets too. *)
  for k = 1 to chunks - 1 do
    let boundary = k * scan_chunk_bytes in
    if not (List.exists (fun (a, b) -> a < boundary && boundary < b) spans) then
      Alcotest.failf "no record straddles chunk boundary %d" k
  done;
  let dev =
    Storage.Block.of_media
      (media_with ~sectors:(1 lsl 16) [ (Wal.default_config.Wal.log_start_lba, log) ])
  in
  let chunked, whole = scan_vs_whole_log dev in
  Alcotest.(check int) "every record" (List.length spans) (List.length whole);
  Alcotest.(check int) "same record count" (List.length whole) (List.length chunked);
  Alcotest.(check bool) "identical records and LSNs" true (chunked = whole);
  Alcotest.(check (list int)) "LSNs are absolute record ends"
    (List.map snd spans)
    (List.map (fun (_, lsn) -> Lsn.to_int lsn) chunked)

let scan_torn_tail_in_later_chunk () =
  let log, spans = synthetic_log ~big:false ~seed:43L ~bytes:(3 * scan_chunk_bytes) () in
  (* Tear one sector in the third chunk: its bytes are zeros, the records
     after it are intact. The scan must stop at the tear, not resync. *)
  let torn_sector = ((2 * scan_chunk_bytes) + 123_457) / scan_sector in
  let start = Wal.default_config.Wal.log_start_lba in
  let media = media_with ~sectors:(1 lsl 16) [ (start, log) ] in
  Storage.Block.Media.write media ~lba:(start + torn_sector)
    ~data:(String.make scan_sector '\000');
  let chunked, whole = scan_vs_whole_log (Storage.Block.of_media media) in
  let tear = torn_sector * scan_sector in
  let before_tear = List.filter (fun (_, b) -> b <= tear) spans in
  Alcotest.(check bool) "records follow the tear" true
    (List.length before_tear < List.length spans - 100);
  Alcotest.(check int) "stops at the tear" (List.length before_tear)
    (List.length chunked);
  Alcotest.(check bool) "identical to whole-log decode" true (chunked = whole)

let scan_two_streams_multi_chunk () =
  let stride = 4 * Recovery.scan_chunk_sectors in
  let wal_config =
    { Wal.default_config with streams = 2; stream_stride_sectors = stride }
  in
  let logs =
    Array.init 2 (fun home ->
        fst
          (synthetic_log ~streams:2 ~home ~seed:(Int64.of_int (47 + home))
             ~bytes:(5 * scan_chunk_bytes / 2) ()))
  in
  let log_device =
    Storage.Block.of_media
      (media_with ~sectors:(1 lsl 16)
         (List.init 2 (fun s -> (Wal.stream_start_lba wal_config s, logs.(s)))))
  in
  let data_device =
    Storage.Block.of_media
      (Storage.Block.Media.create ~sector_size:scan_sector ~capacity_sectors:(1 lsl 16))
  in
  let r =
    Recovery.run ~log_device ~data_device ~wal_config
      ~pool_config:Buffer_pool.default_config
  in
  let decoded = Array.map Log_record.decode_stream logs in
  Alcotest.(check bool) "both streams span chunks" true
    (Array.for_all (fun log -> String.length log > scan_chunk_bytes) logs);
  Alcotest.(check bool) "records are both streams' whole logs" true
    (r.Recovery.records = decoded.(0) @ decoded.(1));
  Alcotest.(check int) "durable end sums the streams"
    (String.length logs.(0) + String.length logs.(1))
    (Lsn.to_int r.Recovery.durable_end);
  let txids =
    List.concat_map
      (List.filter_map (fun (record, _) ->
           match record with
           | Log_record.Commit_multi { txid; _ } -> Some txid
           | _ -> None))
      (Array.to_list decoded)
  in
  Alcotest.(check (list int)) "every transaction committed"
    (List.sort Int.compare txids) r.Recovery.committed;
  Alcotest.(check (list int)) "no losers" [] r.Recovery.losers;
  let latest = Hashtbl.create 1024 in
  Array.iter
    (List.iter (fun (record, _) ->
         match record with
         | Log_record.Update { key; after; _ } -> Hashtbl.replace latest key after
         | _ -> ()))
    decoded;
  Alcotest.(check int) "every key recovered" (Hashtbl.length latest)
    (Hashtbl.length r.Recovery.store);
  Hashtbl.iter
    (fun key value ->
      if Hashtbl.find_opt r.Recovery.store key <> Some value then
        Alcotest.failf "key %d: wrong recovered value" key)
    latest

(* What the scan may allocate per byte of log it reads. The records it
   returns hold about one byte per log byte (the synthetic log is mostly
   after-images); a scan that also copies each chunk into a fresh window
   allocates more than two. *)
let scan_bytes_per_log_byte = 1.5

(* The scan must allocate in proportion to the log it reads. A scan that
   re-copies everything read so far at every chunk allocates per log byte
   in proportion to the number of chunks, so quadrupling the log would
   quadruple its bytes per log byte. Allocation is counted, not timed,
   so the check is deterministic. *)
let scan_allocation_linear () =
  let per_log_byte chunks =
    let log, _ =
      synthetic_log ~big:false ~seed:53L ~bytes:(chunks * scan_chunk_bytes) ()
    in
    let dev =
      Storage.Block.of_media
        (media_with ~sectors:(1 lsl 17) [ (Wal.default_config.Wal.log_start_lba, log) ])
    in
    (* Settle the heap first: the major-heap counters behind
       [Gc.allocated_bytes] are brought up to date by collections. *)
    Gc.full_major ();
    let before = Gc.allocated_bytes () in
    let records = Recovery.scan_records ~log_device:dev ~wal_config:Wal.default_config in
    let allocated = Gc.allocated_bytes () -. before in
    ignore (Sys.opaque_identity records);
    allocated /. float_of_int (String.length log)
  in
  let small = per_log_byte 4 and large = per_log_byte 16 in
  if large > 1.25 *. small then
    Alcotest.failf
      "scan allocates %.2f B per log byte at 16 chunks vs %.2f at 4 (> 1.25x)"
      large small;
  if small > scan_bytes_per_log_byte then
    Alcotest.failf "scan allocates %.2f B per log byte at 4 chunks (bound %.2f)"
      small scan_bytes_per_log_byte

let scan_suite =
  ( "dbms.log_scan",
    [
      case "chunked scan equals whole-log decode" scan_matches_decode_stream;
      case "stops before a distant data region" scan_ignores_far_away_data_region;
      case "empty device" scan_empty_device;
      case "multi-chunk log, records straddle boundaries" scan_multi_chunk_straddling;
      case "torn tail in a later chunk" scan_torn_tail_in_later_chunk;
      case "two streams spanning chunks" scan_two_streams_multi_chunk;
      case "allocation linear in log size" scan_allocation_linear;
    ] )

let suites = suites @ [ scan_suite ]

(* -- Delete operation and WAL truncation (appended) --------------------------- *)

let delete_committed_recovers_as_absent () =
  let rig = make_rig () in
  in_guest rig (fun () ->
      ignore (Engine.exec rig.engine [ Engine.Put { key = 1; value = "short-lived" } ]);
      ignore (Engine.exec rig.engine [ Engine.Delete { key = 1 } ]));
  Sim.run rig.sim;
  let r = recover rig in
  Alcotest.(check (option string)) "deleted key absent" None
    (Hashtbl.find_opt r.Recovery.store 1);
  Alcotest.(check int) "both committed" 2 (List.length r.Recovery.committed)

let delete_then_reinsert () =
  let rig = make_rig () in
  in_guest rig (fun () ->
      ignore (Engine.exec rig.engine [ Engine.Put { key = 2; value = "first" } ]);
      ignore (Engine.exec rig.engine [ Engine.Delete { key = 2 } ]);
      ignore (Engine.exec rig.engine [ Engine.Put { key = 2; value = "second" } ]));
  Sim.run rig.sim;
  let r = recover rig in
  Alcotest.(check (option string)) "reinserted value" (Some "second")
    (Hashtbl.find_opt r.Recovery.store 2)

let delete_uncommitted_undone () =
  let rig = make_rig () in
  in_guest rig (fun () ->
      ignore (Engine.exec rig.engine [ Engine.Put { key = 3; value = "survivor" } ]);
      (* The delete never commits: the guest dies first. *)
      ignore (Engine.exec rig.engine [ Engine.Delete { key = 3 } ]));
  Sim.schedule_after rig.sim (Time.us 700) (fun () ->
      Hypervisor.Vmm.crash_guest rig.vmm);
  Sim.run rig.sim;
  let r = recover rig in
  Alcotest.(check (option string)) "delete rolled back" (Some "survivor")
    (Hashtbl.find_opt r.Recovery.store 3)

let delete_abort_restores () =
  let rig = make_rig () in
  in_guest rig (fun () ->
      ignore (Engine.exec rig.engine [ Engine.Put { key = 4; value = "kept" } ]);
      ignore (Engine.exec_abort rig.engine [ Engine.Delete { key = 4 } ]);
      Wal.force rig.wal (Wal.end_lsn rig.wal));
  Sim.run rig.sim;
  let r = recover rig in
  Alcotest.(check (option string)) "abort restored the row" (Some "kept")
    (Hashtbl.find_opt r.Recovery.store 4)

let delete_reported_in_writes () =
  let rig = make_rig () in
  let writes = ref [] in
  in_guest rig (fun () ->
      ignore (Engine.exec rig.engine [ Engine.Put { key = 5; value = "v" } ]);
      let r = Engine.exec rig.engine [ Engine.Delete { key = 5 } ] in
      writes := r.Engine.writes);
  Sim.run rig.sim;
  Alcotest.(check bool) "delete visible as None" true (!writes = [ (5, None) ])

let checkpoint_keeps_recovery_exact () =
  let rig = make_rig () in
  in_guest rig (fun () ->
      for i = 1 to 40 do
        ignore (Engine.exec rig.engine [ Engine.Put { key = i; value = "t" } ])
      done;
      ignore (Checkpoint.run_once ~wal:rig.wal ~pool:rig.pool));
  Sim.run rig.sim;
  let r = recover rig in
  Alcotest.(check (option string)) "state intact" (Some "t")
    (Hashtbl.find_opt r.Recovery.store 40)

let delete_suite =
  ( "dbms.delete_and_truncate",
    [
      case "committed delete recovers as absent" delete_committed_recovers_as_absent;
      case "delete then reinsert" delete_then_reinsert;
      case "uncommitted delete undone" delete_uncommitted_undone;
      case "aborted delete restores the row" delete_abort_restores;
      case "delete reported as None in writes" delete_reported_in_writes;
      case "checkpoint keeps recovery exact" checkpoint_keeps_recovery_exact;
    ] )

let suites = suites @ [ delete_suite ]

(* -- Restart: multi-incarnation lifecycle (appended) -------------------------- *)

let restart_engine rig =
  let engine, recovery =
    Restart.restart ~vmm:rig.vmm ~profile:Engine_profile.postgres_like
      ~log_device:rig.log_dev ~data_device:rig.data_dev
      ~wal_config:Wal.default_config ~pool_config:Buffer_pool.default_config ()
  in
  (engine, recovery)

let restart_preserves_and_continues () =
  let rig = make_rig () in
  let acked = ref [] in
  (* Epoch 1: 20 commits, then the guest dies. *)
  in_guest rig (fun () ->
      for i = 1 to 20 do
        let r = Engine.exec rig.engine [ Engine.Put { key = i; value = "epoch1" } ] in
        acked := r.Engine.txid :: !acked
      done);
  Sim.schedule_after rig.sim (Time.ms 20) (fun () ->
      Hypervisor.Vmm.crash_guest rig.vmm);
  Sim.run rig.sim;
  (* Epoch 2: restart and commit 20 more (the guest domain is dead, so
     the new incarnation runs in fresh processes). *)
  let epoch2_done = ref false in
  ignore
    (Process.spawn rig.sim ~name:"epoch2" (fun () ->
         let engine, recovery = restart_engine rig in
         Alcotest.(check bool) "epoch 1 commits recovered" true
           (List.length recovery.Recovery.committed >= 20);
         for i = 21 to 40 do
           let r = Engine.exec engine [ Engine.Put { key = i; value = "epoch2" } ] in
           acked := r.Engine.txid :: !acked
         done;
         epoch2_done := true));
  Sim.run rig.sim;
  Alcotest.(check bool) "epoch 2 ran" true !epoch2_done;
  (* Final crash + recovery must see both epochs. *)
  let r = recover rig in
  let report =
    Rapilog.Durability.compare_txids ~committed:!acked
      ~recovered:r.Recovery.committed
  in
  Alcotest.(check bool) "all 40 acked commits durable" true
    (Rapilog.Durability.holds report);
  Alcotest.(check (option string)) "epoch1 value" (Some "epoch1")
    (Hashtbl.find_opt r.Recovery.store 1);
  Alcotest.(check (option string)) "epoch2 value" (Some "epoch2")
    (Hashtbl.find_opt r.Recovery.store 40)

let restart_neutralised_loser_cannot_clobber () =
  (* The dangerous interleaving: epoch 1 leaves a loser on key k; epoch 2
     commits a new value for k; a later recovery must keep epoch 2's
     value (the loser must not be re-undone over it). *)
  let rig = make_rig () in
  in_guest rig (fun () ->
      ignore (Engine.exec rig.engine [ Engine.Put { key = 7; value = "original" } ]);
      (* This one's commit record never becomes durable: crash mid-force. *)
      ignore (Engine.exec rig.engine [ Engine.Put { key = 7; value = "loser" } ]));
  Sim.schedule_after rig.sim (Time.us 700) (fun () ->
      Hypervisor.Vmm.crash_guest rig.vmm);
  Sim.run rig.sim;
  ignore
    (Process.spawn rig.sim ~name:"epoch2" (fun () ->
         let engine, recovery = restart_engine rig in
         Alcotest.(check (option string)) "loser undone at restart"
           (Some "original")
           (Hashtbl.find_opt recovery.Recovery.store 7);
         ignore (Engine.exec engine [ Engine.Put { key = 7; value = "epoch2-final" } ])));
  Sim.run rig.sim;
  let r = recover rig in
  Alcotest.(check (option string)) "epoch 2 value survives re-recovery"
    (Some "epoch2-final")
    (Hashtbl.find_opt r.Recovery.store 7);
  Alcotest.(check (list int)) "no losers remain" [] r.Recovery.losers

let restart_txids_continue () =
  let rig = make_rig () in
  let last_epoch1 = ref 0 in
  in_guest rig (fun () ->
      for i = 1 to 5 do
        let r = Engine.exec rig.engine [ Engine.Put { key = i; value = "x" } ] in
        last_epoch1 := r.Engine.txid
      done);
  Sim.run rig.sim;
  let first_epoch2 = ref 0 in
  ignore
    (Process.spawn rig.sim (fun () ->
         let engine, _ = restart_engine rig in
         let r = Engine.exec engine [ Engine.Put { key = 99; value = "y" } ] in
         first_epoch2 := r.Engine.txid));
  Sim.run rig.sim;
  Alcotest.(check bool)
    (Printf.sprintf "txids continue (%d -> %d)" !last_epoch1 !first_epoch2)
    true
    (!first_epoch2 > !last_epoch1)

let restart_partial_tail_sector () =
  (* The durable log end almost never lands on a sector boundary; the
     resumed WAL must rewrite the partial tail correctly. *)
  let rig = make_rig () in
  in_guest rig (fun () ->
      ignore (Engine.exec rig.engine [ Engine.Put { key = 1; value = "pre" } ]));
  Sim.run rig.sim;
  ignore
    (Process.spawn rig.sim (fun () ->
         let engine, recovery = restart_engine rig in
         Alcotest.(check bool) "tail is partial" true
           (Lsn.to_int recovery.Recovery.durable_end mod 512 <> 0);
         ignore (Engine.exec engine [ Engine.Put { key = 2; value = "post" } ])));
  Sim.run rig.sim;
  let r = recover rig in
  Alcotest.(check (option string)) "record before the seam" (Some "pre")
    (Hashtbl.find_opt r.Recovery.store 1);
  Alcotest.(check (option string)) "record after the seam" (Some "post")
    (Hashtbl.find_opt r.Recovery.store 2)

let restart_checkpoint_then_recover () =
  (* Recovered-but-unflushed state must survive: restart, checkpoint,
     crash, recover — the checkpoint must have persisted the recovered
     pages. *)
  let rig = make_rig () in
  in_guest rig (fun () ->
      ignore (Engine.exec rig.engine [ Engine.Put { key = 5; value = "kept" } ]));
  Sim.run rig.sim;
  ignore
    (Process.spawn rig.sim (fun () ->
         let engine, _ = restart_engine rig in
         ignore
           (Checkpoint.run_once ~wal:(Engine.wal engine) ~pool:(Engine.pool engine))));
  Sim.run rig.sim;
  let r = recover rig in
  Alcotest.(check (option string)) "value persisted via restart checkpoint"
    (Some "kept")
    (Hashtbl.find_opt r.Recovery.store 5);
  (* The checkpoint bounded redo to (almost) nothing. *)
  Alcotest.(check bool)
    (Printf.sprintf "redo bounded (%d)" r.Recovery.redo_applied)
    true (r.Recovery.redo_applied = 0)

let restart_suite =
  ( "dbms.restart",
    [
      case "preserves epoch 1 and continues" restart_preserves_and_continues;
      case "neutralised loser cannot clobber later commits"
        restart_neutralised_loser_cannot_clobber;
      case "txids continue across incarnations" restart_txids_continue;
      case "partial tail sector resumed correctly" restart_partial_tail_sector;
      case "checkpoint after restart persists recovered state"
        restart_checkpoint_then_recover;
    ] )

let suites = suites @ [ restart_suite ]

(* -- Torn-page protection: ping-pong slots (appended) -------------------------- *)

let slots_alternate_on_flush () =
  run_in_sim (fun sim ->
      let dev = Storage.Ssd.create sim Storage.Ssd.default in
      let config = Buffer_pool.default_config in
      let pool = Buffer_pool.create sim config ~device:dev ~wal_force:(fun ~page:_ _ -> ()) in
      let flush value lsn =
        Buffer_pool.with_page pool ~key:0 (fun page ->
            Page.set page ~key:0 ~value ~lsn:(Lsn.of_int lsn);
            Buffer_pool.mark_dirty pool page ~lsn:(Lsn.of_int lsn);
            Buffer_pool.flush_page pool page)
      in
      flush "v1" 10;
      flush "v2" 20;
      let ss = (Storage.Block.info dev).Storage.Block.sector_size in
      let spp = config.Buffer_pool.page_bytes / ss in
      let base = Buffer_pool.lba_of_page config ~sector_size:ss 0 in
      let slot parity =
        Page.deserialize
          (Storage.Block.durable_read dev ~lba:(base + (parity * spp)) ~sectors:spp)
      in
      (match (slot 0, slot 1) with
      | Some a, Some b ->
          let values =
            List.sort compare
              [ Option.get (Page.get a ~key:0); Option.get (Page.get b ~key:0) ]
          in
          Alcotest.(check (list string)) "both generations on device" [ "v1"; "v2" ]
            values
      | _ -> Alcotest.fail "expected two intact slot images"))

let torn_newest_slot_falls_back () =
  run_in_sim (fun sim ->
      let dev = Storage.Ssd.create sim Storage.Ssd.default in
      let log_dev = Storage.Ssd.create sim Storage.Ssd.default in
      let config = Buffer_pool.default_config in
      let wal = Wal.create sim Wal.default_config ~device:log_dev in
      let pool = Buffer_pool.create sim config ~device:dev ~wal_force:(fun ~page:_ lsn -> Wal.force wal lsn) in
      let put_and_flush value =
        let lsn =
          Wal.append wal
            (Log_record.Update { txid = 1; key = 0; before = ""; after = value })
        in
        Wal.force wal lsn;
        Buffer_pool.with_page pool ~key:0 (fun page ->
            Page.set page ~key:0 ~value ~lsn;
            Buffer_pool.mark_dirty pool page ~lsn;
            Buffer_pool.flush_page pool page)
      in
      put_and_flush "old-generation";  (* slot 0 *)
      put_and_flush "new-generation";  (* slot 1 *)
      ignore (Wal.append wal (Log_record.Commit { txid = 1 }));
      Wal.force wal (Wal.end_lsn wal);
      (* Tear the newest image: overwrite part of slot 1 with garbage,
         as a power cut mid-write would. *)
      let ss = (Storage.Block.info dev).Storage.Block.sector_size in
      let spp = config.Buffer_pool.page_bytes / ss in
      let base = Buffer_pool.lba_of_page config ~sector_size:ss 0 in
      Storage.Block.write dev ~lba:(base + spp) (String.make ss 'X');
      (* Recovery falls back to the intact older slot and repairs it by
         replaying the log on top. *)
      let result =
        Recovery.run ~log_device:log_dev ~data_device:dev
          ~wal_config:Wal.default_config ~pool_config:config
      in
      Alcotest.(check (option int)) "winner parity is the older slot" (Some 0)
        (Hashtbl.find_opt result.Recovery.parities 0);
      Alcotest.(check (option string)) "redo repairs over the fallback"
        (Some "new-generation")
        (Hashtbl.find_opt result.Recovery.store 0))

let torn_page_plus_redo_recovers_fully () =
  (* The end-to-end property the ping-pong scheme buys. The physical
     failure is a power cut *during* a page flush - which always targets
     the non-winner slot (flushes never overwrite the newest intact
     image) and always means the checkpoint that issued it did not
     complete, so the master still points at the previous redo point.
     Simulate exactly that: after two completed checkpoints, a third
     flush of the re-dirtied page is interrupted mid-write. *)
  let rig = make_rig () in
  in_guest rig (fun () ->
      ignore (Engine.exec rig.engine [ Engine.Put { key = 1; value = "first" } ]);
      ignore (Checkpoint.run_once ~wal:rig.wal ~pool:rig.pool);
      ignore (Engine.exec rig.engine [ Engine.Put { key = 1; value = "second" } ]);
      ignore (Checkpoint.run_once ~wal:rig.wal ~pool:rig.pool);
      (* The third update is logged and forced, but its page image write
         is the one that tears. *)
      ignore (Engine.exec rig.engine [ Engine.Put { key = 1; value = "third" } ]));
  Sim.run rig.sim;
  let recovery_before = recover rig in
  let winner = Hashtbl.find recovery_before.Recovery.parities 0 in
  let ss = 512 in
  let spp = Buffer_pool.default_config.Buffer_pool.page_bytes / ss in
  let base = Buffer_pool.lba_of_page Buffer_pool.default_config ~sector_size:ss 0 in
  ignore
    (Process.spawn rig.sim (fun () ->
         (* Garbage lands in the slot the interrupted flush was writing:
            the opposite of the winner. *)
         Storage.Block.write rig.data_dev
           ~lba:(base + ((1 - winner) * spp))
           (String.make ss 'X')));
  Sim.run rig.sim;
  let r = recover rig in
  Alcotest.(check (option string))
    "intact image + redo reach the exact committed state" (Some "third")
    (Hashtbl.find_opt r.Recovery.store 1)

let torn_page_suite =
  ( "dbms.torn_pages",
    [
      case "flushes alternate between the slot pair" slots_alternate_on_flush;
      case "torn newest slot falls back to the older image" torn_newest_slot_falls_back;
      case "torn image + redo recovers exact state" torn_page_plus_redo_recovers_fully;
    ] )

let suites = suites @ [ torn_page_suite ]

(* -- Background writer (appended) ---------------------------------------------- *)

let cleaner_cleans_dirty_pages () =
  let sim = Sim.create () in
  let dev = Storage.Ssd.create sim Storage.Ssd.default in
  let pool =
    Buffer_pool.create sim Buffer_pool.default_config ~device:dev
      ~wal_force:(fun ~page:_ _ -> ())
  in
  let domain = Hypervisor.Domain.create sim ~name:"g" ~kind:Hypervisor.Domain.Guest in
  ignore (Buffer_pool.spawn_cleaner pool domain ~interval:(Time.ms 5) ~batch:8);
  ignore
    (Process.spawn sim (fun () ->
         for key = 0 to 63 do
           Buffer_pool.with_page pool ~key (fun page ->
               Page.set page ~key ~value:"dirty" ~lsn:(Lsn.of_int 1);
               Buffer_pool.mark_dirty pool page ~lsn:(Lsn.of_int 1))
         done));
  Sim.run ~until:(Time.add Time.zero (Time.ms 200)) sim;
  Alcotest.(check (list reject)) "no dirty pages left" []
    (List.map ignore (Buffer_pool.dirty_pages pool));
  Alcotest.(check bool) "pages were written" true (Buffer_pool.page_writes pool >= 4);
  Hypervisor.Domain.crash domain

let cleaner_dies_with_guest () =
  let sim = Sim.create () in
  let dev = Storage.Ssd.create sim Storage.Ssd.default in
  let pool =
    Buffer_pool.create sim Buffer_pool.default_config ~device:dev
      ~wal_force:(fun ~page:_ _ -> ())
  in
  let domain = Hypervisor.Domain.create sim ~name:"g" ~kind:Hypervisor.Domain.Guest in
  ignore (Buffer_pool.spawn_cleaner pool domain ~interval:(Time.ms 5) ~batch:8);
  ignore
    (Process.spawn sim (fun () ->
         Buffer_pool.with_page pool ~key:0 (fun page ->
             Page.set page ~key:0 ~value:"d" ~lsn:(Lsn.of_int 1);
             Buffer_pool.mark_dirty pool page ~lsn:(Lsn.of_int 1))));
  Sim.schedule_after sim (Time.ms 1) (fun () -> Hypervisor.Domain.crash domain);
  Sim.run sim;
  (* The cleaner was cancelled with the guest: the page stays dirty. *)
  Alcotest.(check int) "dirty page untouched" 1
    (List.length (Buffer_pool.dirty_pages pool))

let cleaner_suite =
  ( "dbms.bgwriter",
    [
      case "cleans dirty pages in the background" cleaner_cleans_dirty_pages;
      case "dies with its guest domain" cleaner_dies_with_guest;
    ] )

let suites = suites @ [ cleaner_suite ]

(* -- WAL property: random append/force interleavings (appended) ---------------- *)

let wal_interleaving_prop =
  (* Whatever the interleaving of appends, forces and tail rewrites, the
     records decodable from durable media must always be a prefix of the
     appended sequence, and after a final force, the whole of it. *)
  prop "wal: durable log is always the appended prefix" ~count:60
    QCheck2.Gen.(list_size (int_range 1 40) (int_range 0 5))
    (fun choices ->
      let sim = Sim.create () in
      let dev = Storage.Ssd.create sim Storage.Ssd.default in
      let wal = Wal.create sim Wal.default_config ~device:dev in
      let appended = ref [] in
      let next_txid = ref 0 in
      let ok = ref true in
      ignore
        (Process.spawn sim (fun () ->
             let step choice =
               match choice with
               | 0 | 1 | 2 ->
                   incr next_txid;
                   let record = Log_record.Commit { txid = !next_txid } in
                   appended := record :: !appended;
                   ignore (Wal.append wal record)
               | 3 -> Wal.force wal (Wal.end_lsn wal)
               | 4 -> Wal.force_exclusive wal
               | _ ->
                   incr next_txid;
                   let record =
                     Log_record.Update
                       { txid = !next_txid; key = 1; before = "a"; after = "b" }
                   in
                   appended := record :: !appended;
                   ignore (Wal.append wal record)
             in
             List.iter
               (fun choice ->
                 step choice;
                 (* Invariant at every step: durable records form a
                    prefix of the appended list. *)
                 let durable =
                   List.map fst
                     (Recovery.scan_records ~log_device:dev
                        ~wal_config:Wal.default_config)
                 in
                 let expected_prefix =
                   List.filteri
                     (fun i _ -> i < List.length durable)
                     (List.rev !appended)
                 in
                 if durable <> expected_prefix then ok := false)
               choices;
             Wal.force wal (Wal.end_lsn wal)));
      Sim.run sim;
      let durable =
        List.map fst
          (Recovery.scan_records ~log_device:dev ~wal_config:Wal.default_config)
      in
      !ok && durable = List.rev !appended)

let wal_prop_suite = ("dbms.wal_properties", [ wal_interleaving_prop ])

let suites = suites @ [ wal_prop_suite ]

(* -- Decoder robustness: arbitrary bytes must never raise (appended) ----------- *)

let record_decoder_total_prop =
  prop "Log_record.decode never raises on arbitrary bytes" ~count:500
    QCheck2.Gen.(string_size (int_range 0 128))
    (fun junk ->
      match Log_record.decode junk ~pos:0 with
      | Some _ | None -> true
      | exception _ -> false)

let record_decoder_total_on_mutations_prop =
  (* Harder inputs: a valid record with random mutations, decoded at
     every offset. *)
  prop "decode survives mutated records at every offset" ~count:200
    QCheck2.Gen.(pair (int_range 0 50) (int_range 0 255))
    (fun (pos, byte) ->
      let valid =
        Log_record.encode
          (Log_record.Update { txid = 1; key = 2; before = "abc"; after = "defg" })
      in
      let mutated = Bytes.of_string valid in
      if pos < Bytes.length mutated then Bytes.set mutated pos (Char.chr byte);
      let s = Bytes.to_string mutated in
      let ok = ref true in
      for offset = 0 to String.length s - 1 do
        match Log_record.decode s ~pos:offset with
        | Some _ | None -> ()
        | exception _ -> ok := false
      done;
      !ok)

let page_decoder_total_prop =
  prop "Page.deserialize never raises on arbitrary bytes" ~count:300
    QCheck2.Gen.(string_size (int_range 0 8192))
    (fun junk ->
      match Page.deserialize junk with
      | Some _ | None -> true
      | exception _ -> false)

let master_decoder_total () =
  (* A garbage master sector must be rejected, not crash. *)
  run_in_sim (fun sim ->
      let dev = Storage.Ssd.create sim Storage.Ssd.default in
      Storage.Block.write dev ~lba:0 (String.init 512 (fun i -> Char.chr (i land 0xff)));
      Alcotest.(check bool) "rejected" true
        (Wal.read_master Wal.default_config ~device:dev = None))

let recovery_is_pure () =
  let rig = make_rig () in
  in_guest rig (fun () ->
      for i = 1 to 20 do
        ignore (Engine.exec rig.engine [ Engine.Put { key = i; value = "p" } ])
      done);
  Sim.run rig.sim;
  let a = recover rig and b = recover rig in
  Alcotest.(check (list int)) "same committed" a.Recovery.committed b.Recovery.committed;
  Alcotest.(check int) "same store size" (Hashtbl.length a.Recovery.store)
    (Hashtbl.length b.Recovery.store);
  Hashtbl.iter
    (fun key value ->
      Alcotest.(check (option string)) "same value" (Some value)
        (Hashtbl.find_opt b.Recovery.store key))
    a.Recovery.store

let robustness_suite =
  ( "dbms.decoder_robustness",
    [
      record_decoder_total_prop;
      record_decoder_total_on_mutations_prop;
      page_decoder_total_prop;
      case "garbage master block rejected" master_decoder_total;
      case "recovery is a pure function of media" recovery_is_pure;
    ] )

let suites = suites @ [ robustness_suite ]

(* -- Buffer pool against a reference model of its replacement rule -------------- *)

(* The rule: on a miss at capacity, evict the clean page with the
   smallest stamp (last-use tick); if no page is clean, the dirty page
   with the smallest stamp, flushed on the way out. The cleaner flushes
   the [batch] dirty pages with the smallest stamps, oldest first. *)
module Pool_model = struct
  type entry = { id : int; mutable stamp : int; mutable dirty : bool }

  type t = {
    capacity : int;
    mutable entries : entry list;
    mutable clock : int;
    mutable hits : bool list;  (* newest first *)
    mutable flushed : int list;  (* newest first *)
  }

  let create capacity = { capacity; entries = []; clock = 0; hits = []; flushed = [] }

  let tick m =
    m.clock <- m.clock + 1;
    m.clock

  let flush m e =
    if e.dirty then begin
      m.flushed <- e.id :: m.flushed;
      e.dirty <- false
    end

  let access m id =
    match List.find_opt (fun e -> e.id = id) m.entries with
    | Some e ->
        m.hits <- true :: m.hits;
        e.stamp <- tick m;
        e
    | None ->
        m.hits <- false :: m.hits;
        while List.length m.entries >= m.capacity do
          let older a b = if compare (b.dirty, b.stamp) (a.dirty, a.stamp) < 0 then b else a in
          let victim = List.fold_left older (List.hd m.entries) m.entries in
          flush m victim;
          m.entries <- List.filter (fun e -> e != victim) m.entries
        done;
        let e = { id; stamp = tick m; dirty = false } in
        m.entries <- e :: m.entries;
        e

  let clean m batch =
    let dirty = List.filter (fun e -> e.dirty) m.entries in
    let by_age = List.sort (fun a b -> Int.compare a.stamp b.stamp) dirty in
    List.iteri (fun i e -> if i < batch then flush m e) by_age

  let install m id dirty =
    m.entries <- { id; stamp = tick m; dirty } :: List.filter (fun e -> e.id <> id) m.entries
end

type pool_op =
  | Access of int
  | Dirty of int
  | Flush of int
  | Clean of int
  | Flush_all
  | Install of int * bool

let pool_op_gen =
  let open QCheck2.Gen in
  let page = int_range 0 15 in
  frequency
    [
      (4, map (fun p -> Access p) page);
      (4, map (fun p -> Dirty p) page);
      (1, map (fun p -> Flush p) page);
      (1, map (fun b -> Clean b) (int_range 1 4));
      (1, return Flush_all);
      (1, map2 (fun p d -> Install (p, d)) page bool);
    ]

let pool_op_print = function
  | Access p -> Printf.sprintf "Access %d" p
  | Dirty p -> Printf.sprintf "Dirty %d" p
  | Flush p -> Printf.sprintf "Flush %d" p
  | Clean b -> Printf.sprintf "Clean %d" b
  | Flush_all -> "Flush_all"
  | Install (p, d) -> Printf.sprintf "Install (%d, %b)" p d

(* The pool's hit/miss sequence and the sequence of pages it flushes,
   driven by one test process (so nothing interleaves). [flush_all]
   walks the pool's table in hash order, so its flushes are compared as
   a set (sorted) on both sides. *)
let run_pool_ops ~capacity ops =
  run_in_sim (fun sim ->
      let dev = Storage.Ssd.create sim Storage.Ssd.default in
      let flushed = ref [] in
      let config = { Buffer_pool.default_config with capacity_pages = capacity } in
      let pool =
        Buffer_pool.create sim config ~device:dev ~wal_force:(fun ~page _ ->
            flushed := page :: !flushed)
      in
      let keys_per_page = config.Buffer_pool.keys_per_page in
      let hits = ref [] and lsn = ref 0 in
      let next_lsn () =
        incr lsn;
        Lsn.of_int !lsn
      in
      let on_page id f =
        let before = Buffer_pool.hits pool in
        Buffer_pool.with_page pool ~key:(id * keys_per_page) f;
        hits := (Buffer_pool.hits pool > before) :: !hits
      in
      List.iter
        (function
          | Access id -> on_page id ignore
          | Dirty id ->
              on_page id (fun page ->
                  let lsn = next_lsn () in
                  Page.set page ~key:(id * keys_per_page) ~value:"v" ~lsn;
                  Buffer_pool.mark_dirty pool page ~lsn)
          | Flush id -> on_page id (fun page -> Buffer_pool.flush_page pool page)
          | Clean batch -> Buffer_pool.clean pool ~batch
          | Flush_all ->
              let before = !flushed in
              flushed := [];
              Buffer_pool.flush_all pool;
              flushed := List.sort (fun a b -> Int.compare b a) !flushed @ before
          | Install (id, dirty) ->
              let page = Page.create ~id in
              let lsn = next_lsn () in
              Page.set page ~key:(id * keys_per_page) ~value:"i" ~lsn;
              Buffer_pool.install pool page
                ~dirty_at:(if dirty then Some lsn else None)
                ~parity:None)
        ops;
      (List.rev !hits, List.rev !flushed))

let model_pool_ops ~capacity ops =
  let m = Pool_model.create capacity in
  List.iter
    (function
      | Access id -> ignore (Pool_model.access m id)
      | Dirty id -> (Pool_model.access m id).Pool_model.dirty <- true
      | Flush id -> Pool_model.flush m (Pool_model.access m id)
      | Clean batch -> Pool_model.clean m batch
      | Flush_all ->
          let dirty = List.filter (fun e -> e.Pool_model.dirty) m.Pool_model.entries in
          let ids = List.sort Int.compare (List.map (fun e -> e.Pool_model.id) dirty) in
          List.iter (fun e -> e.Pool_model.dirty <- false) dirty;
          m.Pool_model.flushed <- List.rev_append ids m.Pool_model.flushed
      | Install (id, dirty) -> Pool_model.install m id dirty)
    ops;
  (List.rev m.Pool_model.hits, List.rev m.Pool_model.flushed)

let pool_matches_model_prop =
  prop "hit/miss and flush sequences match the reference model" ~count:300
    ~print:(fun (capacity, ops) ->
      Printf.sprintf "capacity %d: [%s]" capacity
        (String.concat "; " (List.map pool_op_print ops)))
    QCheck2.Gen.(pair (int_range 4 8) (list_size (int_range 1 120) pool_op_gen))
    (fun (capacity, ops) -> run_pool_ops ~capacity ops = model_pool_ops ~capacity ops)

let pool_model_suite = ("dbms.buffer_pool_model", [ pool_matches_model_prop ])

let suites = suites @ [ pool_model_suite ]

(* A miss that evicts must cost the same whatever the pool's size: the
   victim comes from an index, not a walk over every cached page. The
   rest of a miss (the fresh page, the table insert, the fetch lock)
   allocates the same at any capacity, so the two counts must agree to
   within a word; a walk that boxes each new running minimum already
   drifts by about eight words between 64 and 4,096 pages. Every page
   is clean and was never written, so each miss materialises an empty
   page and evicts without device I/O. *)
let eviction_allocation_flat () =
  let words_per_eviction capacity =
    run_in_sim (fun sim ->
        let dev = Storage.Ssd.create sim Storage.Ssd.default in
        let config = { Buffer_pool.default_config with capacity_pages = capacity } in
        let pool = Buffer_pool.create sim config ~device:dev ~wal_force:(fun ~page:_ _ -> ()) in
        let keys_per_page = config.Buffer_pool.keys_per_page in
        let touch id = Buffer_pool.with_page pool ~key:(id * keys_per_page) ignore in
        for id = 0 to capacity + 99 do
          touch id
        done;
        let misses = 1_000 in
        let before = Gc.minor_words () in
        for id = capacity + 100 to capacity + 99 + misses do
          touch id
        done;
        let words = Gc.minor_words () -. before in
        Alcotest.(check int) "every access evicted" (misses + 100)
          (Buffer_pool.evictions pool);
        words /. float_of_int misses)
  in
  let small = words_per_eviction 64 and large = words_per_eviction 4096 in
  if large > small +. 1. then
    Alcotest.failf "a miss with eviction allocates %.1f words at capacity 4,096 vs %.1f at 64"
      large small

(* A cleaner pass must cost the same whatever the pool's size: its batch
   comes from the dirty pages' own index, not a sort of every cached
   page. Every page is dirty, so the pass flushes [batch] pages either
   way; [Gc.allocated_bytes] counts the page images too, which skip the
   minor heap. A pass that conses and sorts the dirty set allocates at
   least three words per cached page (398,780 words at 4,096 pages vs
   33,406 at 64). *)
let cleaner_pass_flat () =
  let words_per_pass capacity =
    run_in_sim (fun sim ->
        let dev = Storage.Ssd.create sim Storage.Ssd.default in
        let config = { Buffer_pool.default_config with capacity_pages = capacity } in
        let pool = Buffer_pool.create sim config ~device:dev ~wal_force:(fun ~page:_ _ -> ()) in
        let keys_per_page = config.Buffer_pool.keys_per_page in
        for id = 0 to capacity - 1 do
          let key = id * keys_per_page in
          Buffer_pool.with_page pool ~key (fun page ->
              let lsn = Lsn.of_int (id + 1) in
              Page.set page ~key ~value:"d" ~lsn;
              Buffer_pool.mark_dirty pool page ~lsn)
        done;
        (* An empty minor heap: no collection inside the pass, which
           would count promoted pages against it. *)
        Gc.minor ();
        let before = Gc.allocated_bytes () in
        Buffer_pool.clean pool ~batch:16;
        let words = (Gc.allocated_bytes () -. before) /. 8. in
        Alcotest.(check int) "one batch flushed" 16 (Buffer_pool.page_writes pool);
        words)
  in
  let small = words_per_pass 64 and large = words_per_pass 4096 in
  if large > small +. 16. then
    Alcotest.failf "a cleaner pass allocates %.0f words at capacity 4,096 vs %.0f at 64"
      large small

let pool_cost_suite =
  ( "dbms.buffer_pool_cost",
    [
      case "eviction allocation flat in pool capacity" eviction_allocation_flat;
      case "cleaner pass allocation flat in pool capacity" cleaner_pass_flat;
    ] )

let suites = suites @ [ pool_cost_suite ]

(* -- Recovery reads in place: page slots, allocation, same results --------- *)

let write_slot media ~id ~parity image =
  let config = Buffer_pool.default_config in
  let ss = Storage.Block.Media.sector_size media in
  let spp = config.Buffer_pool.page_bytes / ss in
  Storage.Block.Media.write media
    ~lba:(Buffer_pool.lba_of_page config ~sector_size:ss id + (parity * spp))
    ~data:image

let page_image ~id ~lsn values =
  let page = Page.create ~id in
  List.iter (fun (key, value) -> Page.set page ~key ~value ~lsn:(Lsn.of_int lsn)) values;
  Page.serialize page ~page_bytes:Buffer_pool.default_config.Buffer_pool.page_bytes

(* The reference slot rule, read off whole images:
   deserialize both slots, the newest intact image of the page wins, a
   tie going to parity 0. *)
let reference_slot_choice ~data_device id =
  let config = Buffer_pool.default_config in
  let ss = (Storage.Block.info data_device).Storage.Block.sector_size in
  let spp = config.Buffer_pool.page_bytes / ss in
  let lba = Buffer_pool.lba_of_page config ~sector_size:ss id in
  if lba >= Storage.Block.durable_extent data_device then None
  else begin
    let best = ref None in
    for parity = 0 to 1 do
      match
        Page.deserialize
          (Storage.Block.durable_read data_device ~lba:(lba + (parity * spp)) ~sectors:spp)
      with
      | Some page when page.Page.id = id -> (
          match !best with
          | Some (_, chosen) when Lsn.(page.Page.page_lsn <= chosen.Page.page_lsn) -> ()
          | Some _ | None -> best := Some (parity, page))
      | Some _ | None -> ()
    done;
    !best
  end

type slot_kind =
  | Intact of int  (** page_lsn *)
  | Torn of int * int  (** page_lsn, first zeroed sector *)
  | Crc_bad of int * int  (** page_lsn, flipped entry byte *)
  | Foreign of int  (** an intact image of the next page *)
  | Unwritten

let slot_gen =
  QCheck2.Gen.(
    let lsn = map (fun k -> k * 100) (int_range 0 3) in
    oneof
      [
        map (fun l -> Intact l) lsn;
        map2 (fun l s -> Torn (l, s)) lsn (int_range 0 15);
        map2 (fun l b -> Crc_bad (l, b)) lsn (int_range 0 3_000);
        map (fun l -> Foreign l) lsn;
        pure Unwritten;
      ])

let slot_print = function
  | Intact l -> Printf.sprintf "Intact %d" l
  | Torn (l, s) -> Printf.sprintf "Torn (%d, sector %d)" l s
  | Crc_bad (l, b) -> Printf.sprintf "Crc_bad (%d, byte %d)" l b
  | Foreign l -> Printf.sprintf "Foreign %d" l
  | Unwritten -> "Unwritten"

(* Entries of several hundred bytes, so a page image spans sectors and
   a tear or a flipped byte lands in its entries. *)
let slot_image ~id ~salt kind =
  let values id lsn =
    List.init 4 (fun i ->
        ((id * 16) + i, String.make (300 + (((salt * 7) + (i * 131) + lsn) mod 500)) 'a'))
  in
  let image id lsn = page_image ~id ~lsn (values id lsn) in
  match kind with
  | Intact lsn -> Some (image id lsn)
  | Torn (lsn, sector) ->
      let b = Bytes.of_string (image id lsn) in
      Bytes.fill b (sector * scan_sector) (Bytes.length b - (sector * scan_sector)) '\000';
      Some (Bytes.to_string b)
  | Crc_bad (lsn, byte) ->
      let b = Bytes.of_string (image id lsn) in
      let pos = 28 + byte in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
      Some (Bytes.to_string b)
  | Foreign lsn -> Some (image (id + 1) lsn)
  | Unwritten -> None

let page_view (parity, page) =
  ( parity,
    page.Page.id,
    Lsn.to_int page.Page.page_lsn,
    List.sort compare (List.of_seq (Int_table.to_seq page.Page.values)) )

let slot_choice_matches_reference_prop =
  prop "header-first slot choice equals newest-intact rule" ~count:400
    ~print:(fun (a, b, id, far, salt) ->
      Printf.sprintf "slot0 %s, slot1 %s, page %d, far page %b, salt %d" (slot_print a)
        (slot_print b) id far salt)
    QCheck2.Gen.(
      map
        (fun ((a, b), (id, far, salt)) -> (a, b, id, far, salt))
        (pair (pair slot_gen slot_gen) (triple (int_range 0 3) bool (int_range 0 99))))
    (fun (a, b, id, far, salt) ->
      let media =
        Storage.Block.Media.create ~sector_size:scan_sector ~capacity_sectors:(1 lsl 10)
      in
      List.iteri
        (fun parity kind ->
          Option.iter (write_slot media ~id ~parity) (slot_image ~id ~salt kind))
        [ a; b ];
      (* A page further out puts the written extent past an unwritten
         pair, so its slots read as zeros instead of being skipped. *)
      if far then
        write_slot media ~id:8 ~parity:0 (page_image ~id:8 ~lsn:1 [ (128, "x") ]);
      let data_device = Storage.Block.of_media media in
      let got =
        Recovery.load_page ~data_device ~pool_config:Buffer_pool.default_config id
      in
      let want = reference_slot_choice ~data_device id in
      if Option.map page_view got <> Option.map page_view want then
        QCheck2.Test.fail_reportf "chose %s, the rule chooses %s"
          (match got with Some (p, _) -> string_of_int p | None -> "none")
          (match want with Some (p, _) -> string_of_int p | None -> "none");
      true)

(* What [Recovery.run] may allocate per page it loads: the page, its
   value table and the table entries that index it. Copying either slot
   out as a fresh 8 KiB image string exceeds it. *)
let recovery_bytes_per_page = 2048.

let recovery_allocation_per_page () =
  let pages = 256 in
  let config = Buffer_pool.default_config in
  let kpp = config.Buffer_pool.keys_per_page in
  let buf = Buffer.create 65_536 in
  for id = 0 to pages - 1 do
    let txid = id + 1 in
    Log_record.encode_into (Log_record.Begin { txid }) buf;
    Log_record.encode_into
      (Log_record.Update { txid; key = id * kpp; before = ""; after = "new" })
      buf;
    Log_record.encode_into (Log_record.Commit { txid }) buf
  done;
  let log = Buffer.contents buf in
  let log_device =
    Storage.Block.of_media
      (media_with ~sectors:(1 lsl 16) [ (Wal.default_config.Wal.log_start_lba, log) ])
  in
  let data =
    Storage.Block.Media.create ~sector_size:scan_sector ~capacity_sectors:(1 lsl 14)
  in
  for id = 0 to pages - 1 do
    let values = [ (id * kpp, "old"); ((id * kpp) + 1, "kept") ] in
    write_slot data ~id ~parity:0 (page_image ~id ~lsn:1 values);
    write_slot data ~id ~parity:1 (page_image ~id ~lsn:2 values)
  done;
  let data_device = Storage.Block.of_media data in
  let run () =
    Recovery.run ~log_device ~data_device ~wal_config:Wal.default_config
      ~pool_config:config
  in
  ignore (run ());
  Gc.full_major ();
  let before = Gc.allocated_bytes () in
  let r = run () in
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check int) "every page loaded" pages r.Recovery.pages_loaded;
  Alcotest.(check int) "every update redone" pages r.Recovery.redo_applied;
  let per_page = allocated /. float_of_int pages in
  if per_page > recovery_bytes_per_page then
    Alcotest.failf "recovery allocates %.0f B per loaded page (bound %.0f)" per_page
      recovery_bytes_per_page

(* A deterministic multi-chunk log with committed, aborted (compensated)
   and loser transactions, a Noop now and then, and a torn final record;
   losers write keys of their own, as strict 2PL leaves them. *)
let loser_log ~bytes =
  let rng = Rng.create 61L in
  let buf = Buffer.create (bytes + 8192) in
  let add record = Log_record.encode_into record buf in
  let values = Hashtbl.create 1024 in
  let txid = ref 0 in
  while Buffer.length buf < bytes do
    incr txid;
    let t = !txid in
    add (Log_record.Begin { txid = t });
    let fate = Rng.int rng 10 in
    let keys =
      List.init
        (1 + Rng.int rng 3)
        (fun i -> if fate = 0 then 100_000 + (t * 4) + i else Rng.int rng 800)
    in
    let writes =
      List.map
        (fun key ->
          let before = Option.value ~default:"" (Hashtbl.find_opt values key) in
          let after = Printf.sprintf "%d:%d:%s" t key (String.make (Rng.int rng 3000) 'v') in
          add (Log_record.Update { txid = t; key; before; after });
          (key, before, after))
        keys
    in
    (match fate with
    | 0 -> ()
    | 1 ->
        List.iter
          (fun (key, before, after) ->
            add (Log_record.Update { txid = t; key; before = after; after = before }))
          (List.rev writes);
        add (Log_record.Abort { txid = t })
    | _ ->
        List.iter (fun (key, _, after) -> Hashtbl.replace values key after) writes;
        add (Log_record.Commit { txid = t }));
    if Rng.int rng 40 = 0 then add (Log_record.Noop { filler = 48 })
  done;
  let log = Buffer.contents buf in
  String.sub log 0 (String.length log - 5)

(* Everything [Recovery.run] returns, the store and the parities in
   their iteration order (a restart seeds its pool in the store's
   order), folded into one digest. *)
let recovery_fingerprint (r : Recovery.result) =
  let b = Buffer.create 65_536 in
  Buffer.add_string b (Format.asprintf "%a|" Recovery.pp_stats (Recovery.stats r));
  List.iter
    (fun l ->
      List.iter (Printf.bprintf b "%d,") l;
      Buffer.add_char b '|')
    [ r.Recovery.committed; r.Recovery.aborted; r.Recovery.losers ];
  Printf.bprintf b "%d %d %d|" (Lsn.to_int r.Recovery.redo_start)
    (Lsn.to_int r.Recovery.durable_end) r.Recovery.pages_loaded;
  List.iter
    (fun (record, lsn) ->
      Log_record.encode_into record b;
      Printf.bprintf b "@%d" (Lsn.to_int lsn))
    r.Recovery.records;
  Hashtbl.iter (Printf.bprintf b "p%d=%d,") r.Recovery.parities;
  Hashtbl.iter
    (fun key value -> Printf.bprintf b "k%d=%s," key (Digest.to_hex (Digest.string value)))
    r.Recovery.store;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* [recovery_fingerprint] of this media, captured from the recovery
   that read every chunk and page slot into fresh strings; reading in
   place must not change any of it. *)
let loser_log_fingerprint = "7e16c60f10d845d671efeb6c3381ce35"

let recovery_matches_previous_results () =
  let log = loser_log ~bytes:(5 * scan_chunk_bytes / 2) in
  let log_device =
    Storage.Block.of_media
      (media_with ~sectors:(1 lsl 16) [ (Wal.default_config.Wal.log_start_lba, log) ])
  in
  let data =
    Storage.Block.Media.create ~sector_size:scan_sector ~capacity_sectors:(1 lsl 14)
  in
  let mid = String.length log / 2 in
  for id = 0 to 49 do
    let values lsn = [ (id * 16, Printf.sprintf "img%d@%d" id lsn); ((id * 16) + 15, "tail") ] in
    let image lsn = page_image ~id ~lsn (values lsn) in
    match id mod 5 with
    | 0 -> ()  (* never flushed *)
    | 1 ->
        write_slot data ~id ~parity:0 (image (mid - 1));
        write_slot data ~id ~parity:1 (image mid)
    | 2 ->
        (* The newer slot is torn: recovery falls back to the older. *)
        write_slot data ~id ~parity:0 (image mid);
        let torn = Bytes.of_string (image (mid + 1)) in
        Bytes.set torn 40 'X';
        write_slot data ~id ~parity:1 (Bytes.to_string torn)
    | 3 -> write_slot data ~id ~parity:1 (image (String.length log))
    | _ ->
        write_slot data ~id ~parity:0 (image 1);
        write_slot data ~id ~parity:1 (image 1)
  done;
  let data_device = Storage.Block.of_media data in
  let r =
    Recovery.run ~log_device ~data_device ~wal_config:Wal.default_config
      ~pool_config:Buffer_pool.default_config
  in
  Alcotest.(check bool) "log spans chunks" true (String.length log > 2 * scan_chunk_bytes);
  Alcotest.(check bool) "records are the log's" true
    (r.Recovery.records = Log_record.decode_stream log);
  Alcotest.(check bool) "losers and aborts present" true
    (r.Recovery.losers <> [] && r.Recovery.aborted <> []);
  Alcotest.(check bool) "some loser update undone" true (r.Recovery.undo_applied > 0);
  Alcotest.(check (option int)) "torn newer slot falls back to parity 0" (Some 0)
    (Hashtbl.find_opt r.Recovery.parities 2);
  Alcotest.(check string) "same results as before" loser_log_fingerprint
    (recovery_fingerprint r)

let recovery_in_place_suite =
  ( "dbms.recovery_in_place",
    [
      slot_choice_matches_reference_prop;
      case "allocation per loaded page bounded" recovery_allocation_per_page;
      case "multi-chunk log with losers and a torn slot: same results"
        recovery_matches_previous_results;
    ] )

let suites = suites @ [ recovery_in_place_suite ]
