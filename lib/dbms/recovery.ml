type result = {
  store : (int, string) Hashtbl.t;
  records : (Log_record.t * Lsn.t) list;
  parities : (int, int) Hashtbl.t;
  committed : int list;
  aborted : int list;
  losers : int list;
  durable_records : int;
  durable_end : Lsn.t;
  redo_start : Lsn.t;
  redo_applied : int;
  undo_applied : int;
  pages_loaded : int;
}

type replay_stats = {
  s_durable_records : int;
  s_durable_bytes : int;
  s_committed : int;
  s_aborted : int;
  s_losers : int;
  s_redo_applied : int;
  s_undo_applied : int;
  s_pages_loaded : int;
  s_store_keys : int;
}

let stats result =
  {
    s_durable_records = result.durable_records;
    s_durable_bytes = Lsn.to_int result.durable_end;
    s_committed = List.length result.committed;
    s_aborted = List.length result.aborted;
    s_losers = List.length result.losers;
    s_redo_applied = result.redo_applied;
    s_undo_applied = result.undo_applied;
    s_pages_loaded = result.pages_loaded;
    s_store_keys = Hashtbl.length result.store;
  }

let pp_stats fmt s =
  Format.fprintf fmt
    "records=%d bytes=%d committed=%d aborted=%d losers=%d redo=%d undo=%d \
     pages=%d keys=%d"
    s.s_durable_records s.s_durable_bytes s.s_committed s.s_aborted s.s_losers
    s.s_redo_applied s.s_undo_applied s.s_pages_loaded s.s_store_keys

let read_durable_log ~log_device ~wal_config =
  let extent = Storage.Block.durable_extent log_device in
  let start = wal_config.Wal.log_start_lba in
  if extent <= start then ""
  else Storage.Block.durable_read log_device ~lba:start ~sectors:(extent - start)

(* Chunked scan: read the log region a chunk at a time and decode as we
   go, stopping at the first definitively-invalid record, so the read
   stops slightly past the valid log even when the device's written
   extent is dominated by something else (the single-disk layout puts
   data pages on the same device, far past the log region). Decoding
   works on a window: the undecoded tail of the previous window (at most
   one partial record) followed by the new chunk, read in one piece from
   the sector holding the tail's first byte. [window_lba] is that
   sector, so LSNs stay absolute. Only the tail's sectors are read
   twice, so the scan allocates in proportion to the log it reads. *)
let scan_chunk_sectors = 4096

let scan_records_region ~log_device ~start ~limit_lba =
  let sector_size = (Storage.Block.info log_device).Storage.Block.sector_size in
  let extent = min (Storage.Block.durable_extent log_device) limit_lba in
  let records = ref [] in
  let window = ref "" in
  let window_lba = ref start in
  let pos = ref 0 in
  let finished = ref false in
  let next_lba = ref start in
  while not !finished do
    if !next_lba >= extent then finished := true
    else begin
      let sectors = min scan_chunk_sectors (extent - !next_lba) in
      let tail_lba = !window_lba + (!pos / sector_size) in
      window :=
        Storage.Block.durable_read log_device ~lba:tail_lba
          ~sectors:(!next_lba + sectors - tail_lba);
      next_lba := !next_lba + sectors;
      window_lba := tail_lba;
      pos := !pos mod sector_size;
      let base = (tail_lba - start) * sector_size in
      let progressing = ref true in
      while !progressing do
        match Log_record.decode !window ~pos:!pos with
        | Some (record, size) ->
            pos := !pos + size;
            records := (record, Lsn.of_int (base + !pos)) :: !records
        | None -> progressing := false
      done;
      (* If decoding stalled with more than a maximal record still
         unread, the next bytes are not a truncated record — they are
         the end of the log. *)
      if String.length !window - !pos > Log_record.max_body + 64 then
        finished := true
    end
  done;
  List.rev !records

let scan_records ~log_device ~wal_config =
  scan_records_region ~log_device ~start:wal_config.Wal.log_start_lba
    ~limit_lba:max_int

type outcome = Won | Lost

let analyse records =
  let outcomes = Hashtbl.create 256 in
  let seen = Hashtbl.create 256 in
  let aborted = Hashtbl.create 16 in
  let note_seen txid = Hashtbl.replace seen txid () in
  List.iter
    (fun (record, _lsn) ->
      match record with
      | Log_record.Begin { txid } -> note_seen txid
      | Log_record.Update { txid; _ } -> note_seen txid
      | Log_record.Commit { txid } ->
          note_seen txid;
          Hashtbl.replace outcomes txid Won
      | Log_record.Abort { txid } ->
          note_seen txid;
          Hashtbl.replace outcomes txid Lost;
          Hashtbl.replace aborted txid ()
      (* Multi-stream outcome records only appear in multi-stream logs,
         which {!run_multi} analyses with the dependency-validity rule;
         in a single-stream scan they read as their plain counterparts. *)
      | Log_record.Commit_multi { txid; _ } ->
          note_seen txid;
          Hashtbl.replace outcomes txid Won
      | Log_record.Abort_multi { txid; _ } ->
          note_seen txid;
          Hashtbl.replace outcomes txid Lost;
          Hashtbl.replace aborted txid ()
      | Log_record.Checkpoint _ | Log_record.Noop _ -> ())
    records;
  let committed = ref [] and aborted_list = ref [] and losers = ref [] in
  Hashtbl.iter
    (fun txid () ->
      match Hashtbl.find_opt outcomes txid with
      | Some Won -> committed := txid :: !committed
      | Some Lost -> aborted_list := txid :: !aborted_list
      | None -> losers := txid :: !losers)
    seen;
  ( List.sort Int.compare !committed,
    List.sort Int.compare !aborted_list,
    List.sort Int.compare !losers )

(* Candidate pages: the on-media log is append-only (only the in-guest
   WAL memory is ever truncated), so every key that ever reached a page
   image appears in some durable update record — the distinct pages of
   those keys are exactly the slots worth reading. This keeps recovery
   proportional to the touched working set instead of the (sparse)
   key-space extent. *)
let candidate_page_ids ~pool_config records =
  let keys_per_page = pool_config.Buffer_pool.keys_per_page in
  let ids = Hashtbl.create 1024 in
  List.iter
    (fun (record, _lsn) ->
      match record with
      | Log_record.Update { key; _ } ->
          Hashtbl.replace ids (Page.page_of_key ~keys_per_page key) ()
      | Log_record.Begin _ | Log_record.Commit _ | Log_record.Abort _
      | Log_record.Commit_multi _ | Log_record.Abort_multi _
      | Log_record.Checkpoint _ | Log_record.Noop _ ->
          ())
    records;
  ids

(* Each page owns a pair of slots (ping-pong torn-page protection); the
   newest slot with an intact CRC wins, and its parity is reported so a
   restart's flushes keep avoiding the winner. *)
let load_page_slots ~data_device ~pool_config id =
  let sector_size = (Storage.Block.info data_device).Storage.Block.sector_size in
  let sectors_per_page = pool_config.Buffer_pool.page_bytes / sector_size in
  let extent = Storage.Block.durable_extent data_device in
  let lba = Buffer_pool.lba_of_page pool_config ~sector_size id in
  if lba >= extent then None
  else begin
    let best = ref None in
    for parity = 0 to Buffer_pool.slot_count - 1 do
      let image =
        Storage.Block.durable_read data_device
          ~lba:(lba + (parity * sectors_per_page))
          ~sectors:sectors_per_page
      in
      match Page.deserialize image with
      | Some page when page.Page.id = id -> (
          match !best with
          | Some (_, chosen) when Lsn.(page.Page.page_lsn <= chosen.Page.page_lsn)
            ->
              ()
          | Some _ | None -> best := Some (parity, page))
      | Some _ | None -> ()  (* unwritten slot, or torn by the crash *)
    done;
    !best
  end

let load_pages ~data_device ~pool_config records =
  let pages = Hashtbl.create 256 in
  let parities = Hashtbl.create 256 in
  Hashtbl.iter
    (fun id () ->
      match load_page_slots ~data_device ~pool_config id with
      | Some (parity, page) ->
          Hashtbl.replace pages id page;
          Hashtbl.replace parities id parity
      | None -> ())
    (candidate_page_ids ~pool_config records);
  (pages, parities)

(* The redo and undo passes plus the final store projection, shared
   between {!run} and the incremental engine's from-scratch fallback so
   the two are identical by construction. Mutates [pages] in place. *)
let redo_undo_store ~pool_config ~records ~losers ~redo_start ~pages =
  let loser_set = Hashtbl.create 16 in
  List.iter (fun txid -> Hashtbl.replace loser_set txid ()) losers;
  let keys_per_page = pool_config.Buffer_pool.keys_per_page in
  let page_of_key key =
    let id = Page.page_of_key ~keys_per_page key in
    match Hashtbl.find_opt pages id with
    | Some page -> page
    | None ->
        let page = Page.create ~id in
        Hashtbl.replace pages id page;
        page
  in
  (* Redo: repeating history from the redo point, guarded by page LSNs. *)
  let redo_applied = ref 0 in
  List.iter
    (fun (record, lsn) ->
      match record with
      | Log_record.Update { key; after; _ } when Lsn.(redo_start < lsn) ->
          let page = page_of_key key in
          if Lsn.(page.Page.page_lsn < lsn) then begin
            (* An empty after-image (from a compensating update whose key
               did not exist before the transaction) encodes a delete. *)
            if String.length after = 0 then begin
              Hashtbl.remove page.Page.values key;
              page.Page.page_lsn <- lsn
            end
            else Page.set page ~key ~value:after ~lsn;
            incr redo_applied
          end
      | Log_record.Update _ | Log_record.Begin _ | Log_record.Commit _
      | Log_record.Abort _ | Log_record.Commit_multi _ | Log_record.Abort_multi _
      | Log_record.Checkpoint _ | Log_record.Noop _ ->
          ())
    records;
  (* Undo the losers, newest first. An empty before-image encodes "key did
     not exist". *)
  let undo_applied = ref 0 in
  List.iter
    (fun (record, _lsn) ->
      match record with
      | Log_record.Update { txid; key; before; _ }
        when Hashtbl.mem loser_set txid ->
          let page = page_of_key key in
          if String.length before = 0 then Hashtbl.remove page.Page.values key
          else Hashtbl.replace page.Page.values key before;
          incr undo_applied
      | Log_record.Update _ | Log_record.Begin _ | Log_record.Commit _
      | Log_record.Abort _ | Log_record.Commit_multi _ | Log_record.Abort_multi _
      | Log_record.Checkpoint _ | Log_record.Noop _ ->
          ())
    (List.rev records);
  let store = Hashtbl.create 1024 in
  Hashtbl.iter
    (fun _id page ->
      Hashtbl.iter (fun key value -> Hashtbl.replace store key value) page.Page.values)
    pages;
  (!redo_applied, !undo_applied, store)

(* Recovery is pure in the media images (no simulation handle), so the
   stage counters resolve against the ambient registry per run rather
   than at a create point. *)
let note_metrics result =
  (match Desim.Metrics.recording () with
  | Some reg ->
      Desim.Metrics.Counter.incr (Desim.Metrics.counter reg "recovery.runs");
      Desim.Metrics.Counter.add
        (Desim.Metrics.counter reg "recovery.durable_records")
        result.durable_records;
      Desim.Metrics.Counter.add
        (Desim.Metrics.counter reg "recovery.redo_applied")
        result.redo_applied;
      Desim.Metrics.Counter.add
        (Desim.Metrics.counter reg "recovery.undo_applied")
        result.undo_applied
  | None -> ());
  result

(* {2 Multi-stream recovery}

   With [Wal.streams > 1] every stream is an independent byte sequence
   in its own device region, so the scan runs per stream (region-bounded
   — a later stream's bytes must not read as stream [s]'s tail) and a
   transaction's fate follows the dependency rule documented on
   {!Log_record.Commit_multi}: the outcome counts only if, for every
   stream, the recorded dependency is inside that stream's durable
   decoded prefix. Because commit vectors fold in the WAL's cross-stream
   watermark, the valid commits are closed under the commit order — an
   invalid commit can never be depended on by a valid one. *)

let analyse_multi per_stream ~durable_ends =
  let streams = Array.length durable_ends in
  let valid deps =
    Array.length deps = streams
    && begin
         let ok = ref true in
         Array.iteri (fun s d -> if d > durable_ends.(s) then ok := false) deps;
         !ok
       end
  in
  let outcomes = Hashtbl.create 256 in
  let seen = Hashtbl.create 256 in
  let note_seen txid = Hashtbl.replace seen txid () in
  Array.iter
    (List.iter (fun (record, _lsn) ->
         match record with
         | Log_record.Begin { txid } -> note_seen txid
         | Log_record.Update { txid; _ } -> note_seen txid
         | Log_record.Commit { txid } ->
             note_seen txid;
             Hashtbl.replace outcomes txid Won
         | Log_record.Abort { txid } ->
             note_seen txid;
             Hashtbl.replace outcomes txid Lost
         | Log_record.Commit_multi { txid; deps } ->
             note_seen txid;
             if valid deps then Hashtbl.replace outcomes txid Won
         | Log_record.Abort_multi { txid; deps } ->
             note_seen txid;
             if valid deps then Hashtbl.replace outcomes txid Lost
         | Log_record.Checkpoint _ | Log_record.Noop _ -> ()))
    per_stream;
  let committed = ref [] and aborted_list = ref [] and losers = ref [] in
  Hashtbl.iter
    (fun txid () ->
      match Hashtbl.find_opt outcomes txid with
      | Some Won -> committed := txid :: !committed
      | Some Lost -> aborted_list := txid :: !aborted_list
      | None -> losers := txid :: !losers)
    seen;
  ( List.sort Int.compare !committed,
    List.sort Int.compare !aborted_list,
    List.sort Int.compare !losers )

let run_multi ~log_device ~data_device ~wal_config ~pool_config =
  let streams = wal_config.Wal.streams in
  let per_stream =
    Array.init streams (fun s ->
        let start = Wal.stream_start_lba wal_config s in
        scan_records_region ~log_device ~start
          ~limit_lba:(start + wal_config.Wal.stream_stride_sectors))
  in
  let durable_ends =
    Array.map
      (fun records ->
        match List.rev records with [] -> 0 | (_, lsn) :: _ -> Lsn.to_int lsn)
      per_stream
  in
  let committed, aborted, losers = analyse_multi per_stream ~durable_ends in
  let all_records = List.concat (Array.to_list per_stream) in
  let pages, parities = load_pages ~data_device ~pool_config all_records in
  let keys_per_page = pool_config.Buffer_pool.keys_per_page in
  let page_of_key key =
    let id = Page.page_of_key ~keys_per_page key in
    match Hashtbl.find_opt pages id with
    | Some page -> page
    | None ->
        let page = Page.create ~id in
        Hashtbl.replace pages id page;
        page
  in
  (* Redo: repeating history per stream, in stream order, from the log
     start (multi-stream configurations run without checkpoints). Pages
     are partitioned across streams — every update to a page lives on
     one stream — so the page-LSN guard compares LSNs of one sequence,
     exactly as in the single-stream pass. *)
  let redo_applied = ref 0 in
  Array.iter
    (List.iter (fun (record, lsn) ->
         match record with
         | Log_record.Update { key; after; _ } ->
             let page = page_of_key key in
             if Lsn.(page.Page.page_lsn < lsn) then begin
               (if String.length after = 0 then begin
                  Hashtbl.remove page.Page.values key;
                  page.Page.page_lsn <- lsn
                end
                else Page.set page ~key ~value:after ~lsn);
               incr redo_applied
             end
         | _ -> ()))
    per_stream;
  (* Undo: roll the losers back per stream, newest first. One wrinkle
     the single log never shows: a key a loser updated may carry a later
     update by a *valid committed* winner. Under strict 2PL the winner
     can only have locked the key after the loser's in-memory rollback
     completed — but the loser's abort record may have missed the
     durable prefix of its home stream even though the winner's commit
     made its own (the streams' prefixes are independent). Restoring the
     loser's before-image would clobber the winner, so a loser's update
     is skipped when a valid winner touched the key {e later} (per-key
     LSNs are comparable — a page's updates all live on one stream):
     the loser's durable update/compensation pair nets to the value the
     winner started from, which redo already superseded. A loser update
     {e after} the last winner update is the newest durable state of the
     key and must still be rolled back — strict 2PL puts every record of
     an earlier loser before the winner's, so the guard never slices the
     middle of one loser's update/compensation sequence. *)
  let loser_set = Hashtbl.create 16 in
  List.iter (fun txid -> Hashtbl.replace loser_set txid ()) losers;
  let winner_set = Hashtbl.create 64 in
  List.iter (fun txid -> Hashtbl.replace winner_set txid ()) committed;
  let winner_latest = Hashtbl.create 256 in
  Array.iter
    (List.iter (fun (record, lsn) ->
         match record with
         | Log_record.Update { txid; key; _ } when Hashtbl.mem winner_set txid ->
             let prev =
               match Hashtbl.find_opt winner_latest key with
               | Some prev -> prev
               | None -> Lsn.zero
             in
             Hashtbl.replace winner_latest key (Lsn.max prev lsn)
         | _ -> ()))
    per_stream;
  let superseded key lsn =
    match Hashtbl.find_opt winner_latest key with
    | Some w -> Lsn.(lsn < w)
    | None -> false
  in
  let undo_applied = ref 0 in
  Array.iter
    (fun records ->
      List.iter
        (fun (record, lsn) ->
          match record with
          | Log_record.Update { txid; key; before; _ }
            when Hashtbl.mem loser_set txid && not (superseded key lsn) ->
              let page = page_of_key key in
              if String.length before = 0 then Hashtbl.remove page.Page.values key
              else Hashtbl.replace page.Page.values key before;
              incr undo_applied
          | _ -> ())
        (List.rev records))
    per_stream;
  let store = Hashtbl.create 1024 in
  Hashtbl.iter
    (fun _id page ->
      Hashtbl.iter (fun key value -> Hashtbl.replace store key value) page.Page.values)
    pages;
  note_metrics
    {
      store;
      records = all_records;
      parities;
      committed;
      aborted;
      losers;
      durable_records = List.length all_records;
      durable_end = Lsn.of_int (Array.fold_left ( + ) 0 durable_ends);
      redo_start = Lsn.zero;
      redo_applied = !redo_applied;
      undo_applied = !undo_applied;
      pages_loaded = Hashtbl.length pages;
    }

let run_single ~log_device ~data_device ~wal_config ~pool_config =
  let records = scan_records ~log_device ~wal_config in
  let committed, aborted, losers = analyse records in
  let redo_start =
    match Wal.read_master wal_config ~device:log_device with
    | Some lsn -> lsn
    | None -> Lsn.zero
  in
  let pages, parities = load_pages ~data_device ~pool_config records in
  let redo_applied, undo_applied, store =
    redo_undo_store ~pool_config ~records ~losers ~redo_start ~pages
  in
  note_metrics
  {
    store;
    records;
    parities;
    committed;
    aborted;
    losers;
    durable_records = List.length records;
    durable_end =
      (match List.rev records with [] -> Lsn.zero | (_, lsn) :: _ -> lsn);
    redo_start;
    redo_applied;
    undo_applied;
    pages_loaded = Hashtbl.length pages;
  }

let run ~log_device ~data_device ~wal_config ~pool_config =
  if wal_config.Wal.streams > 1 then
    run_multi ~log_device ~data_device ~wal_config ~pool_config
  else run_single ~log_device ~data_device ~wal_config ~pool_config


(* {2 Incremental recovery}

   The journal-based crash sweep runs recovery at thousands of
   boundaries over media images that differ only by a small suffix: the
   evolving base image grows monotonically as the sweep's cursor folds
   in durable writes, and each boundary adds a per-point overlay (the
   in-flight writes synthesized for that crash instant). Re-running the
   sequential pass per point would redo work proportional to the whole
   log at every boundary; this engine amortizes it in two layers.

   {b Shared per reference run} ({!Incremental.prepare}): the sweep
   knows, before reconstructing a single point, every byte the run will
   ever push at the log — the "future stream" [f]: each log push blitted
   at its stream offset, latest version winning. Decoding [f] once
   yields the record array every point's durable log is a prefix of,
   plus indexes over it (per-transaction first-appearance / outcome /
   update positions, per-page update positions). A point whose durable
   stream equals [f] on its first [L] bytes decodes exactly the records
   ending within [L] — decoding is deterministic and record-local — so
   that point's scan and analysis reduce to binary searches.

   {b Shared per cursor} ({!Incremental.create}): two byte watermarks
   certify the prefix property without per-point comparisons.
   [push_ok] is maintained by {!note_push}: each push is compared
   against [f] once, as the cursor folds it in; [base_ok] does the same
   for completed base log writes. A point's overlay writes that replay
   buffered pushes are trusted below [push_ok] outright; the rare
   overlay write carrying a recorded device batch (whose tail sector
   may be staler than [f]) is compared directly. The segments trusted
   by watermark or comparison, overlaid in application order over the
   trusted base prefix, give the point's verified stream length — and
   any divergence simply lowers the split point: records below it come
   from [f], the remainder (typically under a sector) is re-read from
   the point's media and decoded per point, exactly as the sequential
   scan would read it.

   The cursor also repeats redo history once, against the evolving base
   data volume, up to the deepest split point seen so far. Per point,
   the shared page table is copied and patched at page granularity:
   pages whose sectors the point's data overlay touches, and pages the
   shared state has redone past the point's split, are reloaded from
   the point's device and replayed from the per-page position index —
   the per-page effect of redo is position-local, so replaying one
   page's positions below the split reproduces the sequential
   interleaving exactly. {!note_data_write} invalidates base pages by
   the same sector-to-page arithmetic when the base volume itself
   advances.

   Every guard, application order and counter reproduces {!run} on the
   same media exactly — the crash sweep's differential oracle compares
   the two bit-for-bit, media digest included. *)

module Incremental = struct
  type shared = {
    s_wal : Wal.config;
    s_pool : Buffer_pool.config;
    s_ss : int;  (* log-device sector size *)
    f_str : string;  (* the future stream *)
    f_len : int;
    f_recs : Log_record.t array;  (* maximal valid decode of [f_str] *)
    f_ends : int array;  (* strictly increasing record end offsets *)
    f_pairs : (Log_record.t * Lsn.t) array;  (* preshared (record, LSN) *)
    f_n : int;
    (* Transaction index, one slot per distinct txid, ascending. *)
    x_txids : int array;
    x_first : int array;  (* first record position mentioning the txid *)
    x_opos : int array array;  (* outcome record positions, ascending *)
    x_oval : outcome array array;
    x_upd : int array array;  (* update record positions, ascending *)
    p_upd : (int, int array) Hashtbl.t;  (* page id -> update positions *)
  }

  let dummy_record = Log_record.Noop { filler = 0 }

  (* Count of elements <= x (upper) / < x (lower) in ascending arr[0..n). *)
  let upper_bound arr n x =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if arr.(mid) <= x then lo := mid + 1 else hi := mid
    done;
    !lo

  let lower_bound arr n x =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if arr.(mid) < x then lo := mid + 1 else hi := mid
    done;
    !lo

  let find_txid sh txid =
    let n = Array.length sh.x_txids in
    let i = lower_bound sh.x_txids n txid in
    if i < n && sh.x_txids.(i) = txid then i else -1

  let prepare ~wal_config ~pool_config ~log_sector_size ~future =
    let f_len = String.length future in
    let entries = ref [] and n = ref 0 and pos = ref 0 in
    let progressing = ref true in
    while !progressing do
      match Log_record.decode future ~pos:!pos with
      | Some (record, size) ->
          pos := !pos + size;
          entries := (record, !pos) :: !entries;
          incr n
      | None -> progressing := false
    done;
    let f_n = !n in
    let f_recs = Array.make f_n dummy_record and f_ends = Array.make f_n 0 in
    List.iteri
      (fun j (r, e) ->
        f_recs.(f_n - 1 - j) <- r;
        f_ends.(f_n - 1 - j) <- e)
      !entries;
    let f_pairs = Array.init f_n (fun i -> (f_recs.(i), Lsn.of_int f_ends.(i))) in
    let first = Hashtbl.create 256 in
    let opos = Hashtbl.create 64 in  (* txid -> (pos, outcome), newest-first *)
    let upd = Hashtbl.create 256 in  (* txid -> positions, newest-first *)
    let pupd = Hashtbl.create 256 in  (* page id -> positions, newest-first *)
    let keys_per_page = pool_config.Buffer_pool.keys_per_page in
    let note_first txid i =
      if not (Hashtbl.mem first txid) then Hashtbl.replace first txid i
    in
    for i = 0 to f_n - 1 do
      match f_recs.(i) with
      | Log_record.Begin { txid } -> note_first txid i
      | Log_record.Update { txid; key; _ } ->
          note_first txid i;
          Hashtbl.replace upd txid
            (i :: Option.value ~default:[] (Hashtbl.find_opt upd txid));
          let id = Page.page_of_key ~keys_per_page key in
          Hashtbl.replace pupd id
            (i :: Option.value ~default:[] (Hashtbl.find_opt pupd id))
      | Log_record.Commit { txid } ->
          note_first txid i;
          Hashtbl.replace opos txid
            ((i, Won) :: Option.value ~default:[] (Hashtbl.find_opt opos txid))
      | Log_record.Abort { txid } ->
          note_first txid i;
          Hashtbl.replace opos txid
            ((i, Lost) :: Option.value ~default:[] (Hashtbl.find_opt opos txid))
      (* The incremental engine only serves single-stream sweeps (the
         multi-stream path falls back to the sequential {!run}); a
         multi-stream outcome record reads as its plain counterpart. *)
      | Log_record.Commit_multi { txid; _ } ->
          note_first txid i;
          Hashtbl.replace opos txid
            ((i, Won) :: Option.value ~default:[] (Hashtbl.find_opt opos txid))
      | Log_record.Abort_multi { txid; _ } ->
          note_first txid i;
          Hashtbl.replace opos txid
            ((i, Lost) :: Option.value ~default:[] (Hashtbl.find_opt opos txid))
      | Log_record.Checkpoint _ | Log_record.Noop _ -> ()
    done;
    let x_txids =
      Array.of_list
        (List.sort Int.compare (Hashtbl.fold (fun t _ acc -> t :: acc) first []))
    in
    let nt = Array.length x_txids in
    let x_first = Array.map (fun t -> Hashtbl.find first t) x_txids in
    let x_opos = Array.make nt [||] in
    let x_oval = Array.make nt [||] in
    let x_upd = Array.make nt [||] in
    Array.iteri
      (fun xi t ->
        (match Hashtbl.find_opt opos t with
        | Some l ->
            let l = List.rev l in
            x_opos.(xi) <- Array.of_list (List.map fst l);
            x_oval.(xi) <- Array.of_list (List.map snd l)
        | None -> ());
        match Hashtbl.find_opt upd t with
        | Some l -> x_upd.(xi) <- Array.of_list (List.rev l)
        | None -> ())
      x_txids;
    let p_upd = Hashtbl.create (max 16 (Hashtbl.length pupd)) in
    Hashtbl.iter
      (fun id l -> Hashtbl.replace p_upd id (Array.of_list (List.rev l)))
      pupd;
    {
      s_wal = wal_config;
      s_pool = pool_config;
      s_ss = log_sector_size;
      f_str = future;
      f_len;
      f_recs;
      f_ends;
      f_pairs;
      f_n;
      x_txids;
      x_first;
      x_opos;
      x_oval;
      x_upd;
      p_upd;
    }

  type t = {
    sh : shared;
    data_base : Storage.Block.t;
    data_ss : int;
    (* Watermarks: base log bytes [0, base_ok) are durable and equal to
       the future stream; future bytes [0, push_ok) were confirmed by
       folded-in pushes. *)
    mutable base_ok : int;
    mutable push_ok : int;
    (* Redo state over f_recs[0..redone), valid for one master LSN. *)
    mutable redo_valid : bool;
    mutable redo_master : Lsn.t;
    mutable redone : int;
    mutable base_redo_applied : int;
    r_pages : (int, Page.t) Hashtbl.t;
    r_parities : (int, int) Hashtbl.t;
    r_seen : (int, unit) Hashtbl.t;  (* candidate ids already probed *)
    r_counts : (int, int) Hashtbl.t;  (* id -> redo applications on it *)
    pending_invalid : (int, unit) Hashtbl.t;
    mutable rebuild_count : int;
  }

  let create sh ~data_base =
    {
      sh;
      data_base;
      data_ss = (Storage.Block.info data_base).Storage.Block.sector_size;
      base_ok = 0;
      push_ok = 0;
      redo_valid = false;
      redo_master = Lsn.zero;
      redone = 0;
      base_redo_applied = 0;
      r_pages = Hashtbl.create 64;
      r_parities = Hashtbl.create 64;
      r_seen = Hashtbl.create 64;
      r_counts = Hashtbl.create 64;
      pending_invalid = Hashtbl.create 16;
      rebuild_count = 0;
    }

  let rebuilds t = t.rebuild_count

  (* First index where [data] differs from the future stream at [off]
     (bytes past the stream's end differ by definition); [len] if none. *)
  let first_diff sh ~off data ~len =
    let lim = if off >= sh.f_len then 0 else min len (sh.f_len - off) in
    let s = sh.f_str in
    let i = ref 0 in
    while
      !i + 8 <= lim
      && Int64.equal (String.get_int64_ne data !i)
           (String.get_int64_ne s (off + !i))
    do
      i := !i + 8
    done;
    while !i < lim && String.unsafe_get data !i = String.unsafe_get s (off + !i)
    do
      incr i
    done;
    !i

  let note_push t ~lba ~data =
    let start = t.sh.s_wal.Wal.log_start_lba in
    assert (lba >= start);
    let off = (lba - start) * t.sh.s_ss in
    let len = String.length data in
    if off <= t.push_ok then begin
      let fd = first_diff t.sh ~off data ~len in
      if fd = len then t.push_ok <- max t.push_ok (off + len)
      else
        (* [off <= push_ok]: bytes [off, off+fd) match and are contiguous
           with the confirmed prefix; bytes beyond were just overwritten
           with diverging content. Both cases land on [off + fd]. *)
        t.push_ok <- off + fd
    end
  (* A push beyond the confirmed prefix (the WAL appends contiguously,
     so this does not arise) simply fails to extend the watermark. *)

  let note_log_write t ~lba ~data =
    let start = t.sh.s_wal.Wal.log_start_lba in
    let len = String.length data in
    if lba >= start then begin
      let off = (lba - start) * t.sh.s_ss in
      if off <= t.base_ok then begin
        let fd = first_diff t.sh ~off data ~len in
        if fd = len then t.base_ok <- max t.base_ok (off + len)
        else t.base_ok <- off + fd
      end
    end
    else
      (* A master-block write: below the stream, never straddling it. *)
      assert (lba + (len / t.sh.s_ss) <= start)

  (* Page ids whose slot pairs intersect [lba, lba + sectors) of the
     data volume. *)
  let iter_range_ids t ~lba ~sectors f =
    if sectors > 0 then begin
      let pool = t.sh.s_pool in
      let sectors_per_page = pool.Buffer_pool.page_bytes / t.data_ss in
      let pair = Buffer_pool.slot_count * sectors_per_page in
      let rel_lo = lba - pool.Buffer_pool.data_start_lba in
      let rel_hi = rel_lo + sectors - 1 in
      if rel_hi >= 0 then
        for id = max 0 rel_lo / pair to rel_hi / pair do
          f id
        done
    end

  let note_data_write t ~lba ~sectors =
    iter_range_ids t ~lba ~sectors (fun id ->
        if Hashtbl.mem t.r_seen id then begin
          Hashtbl.remove t.r_seen id;
          Hashtbl.remove t.r_pages id;
          Hashtbl.remove t.r_parities id;
          (match Hashtbl.find_opt t.r_counts id with
          | Some c ->
              t.base_redo_applied <- t.base_redo_applied - c;
              Hashtbl.remove t.r_counts id
          | None -> ());
          Hashtbl.replace t.pending_invalid id ()
        end)

  let find_or_create pages id =
    match Hashtbl.find_opt pages id with
    | Some page -> page
    | None ->
        let page = Page.create ~id in
        Hashtbl.replace pages id page;
        page

  (* Re-apply page [id]'s history below position [bound] onto [pages],
     returning the application count. Identical per-page effect to the
     in-order global redo pass: the LSN guards are page-local. *)
  let replay_page sh ~redo_start ~pages id ~bound =
    match Hashtbl.find_opt sh.p_upd id with
    | None -> 0
    | Some poss ->
        let applied = ref 0 in
        let nn = lower_bound poss (Array.length poss) bound in
        for q = 0 to nn - 1 do
          let i = poss.(q) in
          match sh.f_recs.(i) with
          | Log_record.Update { key; after; _ } ->
              let lsn = Lsn.of_int sh.f_ends.(i) in
              if Lsn.(redo_start < lsn) then begin
                let page = find_or_create pages id in
                if Lsn.(page.Page.page_lsn < lsn) then begin
                  (if String.length after = 0 then begin
                     Hashtbl.remove page.Page.values key;
                     page.Page.page_lsn <- lsn
                   end
                   else Page.set page ~key ~value:after ~lsn);
                  incr applied
                end
              end
          | _ -> assert false
        done;
        !applied

  (* Probe a candidate page's slots on the base volume and catch its
     history up to [bound], once per (probe, invalidation) generation. *)
  let ensure_base_loaded t ~redo_start ~bound id =
    if not (Hashtbl.mem t.r_seen id) then begin
      Hashtbl.replace t.r_seen id ();
      (match load_page_slots ~data_device:t.data_base ~pool_config:t.sh.s_pool id with
      | Some (parity, page) ->
          Hashtbl.replace t.r_pages id page;
          Hashtbl.replace t.r_parities id parity
      | None -> ());
      let applied = replay_page t.sh ~redo_start ~pages:t.r_pages id ~bound in
      if applied > 0 then begin
        Hashtbl.replace t.r_counts id applied;
        t.base_redo_applied <- t.base_redo_applied + applied
      end
    end

  (* Advance the shared redo state through the first [k] records —
     never backwards: a point below the deepest split seen so far
     patches the over-advanced pages on its own copy instead. This
     interleaves candidate-page loads with redo where the sequential
     pass loads everything first — equivalent, because loading reads
     only media, which redo never touches. *)
  let advance_redo t ~redo_start k =
    if not (t.redo_valid && Lsn.equal t.redo_master redo_start) then begin
      Hashtbl.reset t.r_pages;
      Hashtbl.reset t.r_parities;
      Hashtbl.reset t.r_seen;
      Hashtbl.reset t.r_counts;
      Hashtbl.reset t.pending_invalid;
      t.redone <- 0;
      t.base_redo_applied <- 0;
      t.redo_master <- redo_start;
      if t.redo_valid then t.rebuild_count <- t.rebuild_count + 1;
      t.redo_valid <- true
    end;
    let keys_per_page = t.sh.s_pool.Buffer_pool.keys_per_page in
    while t.redone < k do
      let i = t.redone in
      (match t.sh.f_recs.(i) with
      | Log_record.Update { key; after; _ } ->
          let id = Page.page_of_key ~keys_per_page key in
          ensure_base_loaded t ~redo_start ~bound:i id;
          let lsn = Lsn.of_int t.sh.f_ends.(i) in
          if Lsn.(redo_start < lsn) then begin
            let page = find_or_create t.r_pages id in
            if Lsn.(page.Page.page_lsn < lsn) then begin
              (if String.length after = 0 then begin
                 Hashtbl.remove page.Page.values key;
                 page.Page.page_lsn <- lsn
               end
               else Page.set page ~key ~value:after ~lsn);
              t.base_redo_applied <- t.base_redo_applied + 1;
              Hashtbl.replace t.r_counts id
                (1 + Option.value ~default:0 (Hashtbl.find_opt t.r_counts id))
            end
          end
      | Log_record.Begin _ | Log_record.Commit _ | Log_record.Abort _
      | Log_record.Commit_multi _ | Log_record.Abort_multi _
      | Log_record.Checkpoint _ | Log_record.Noop _ ->
          ());
      t.redone <- i + 1
    done;
    (* Re-probe pages whose base image changed under already-repeated
       history. *)
    if Hashtbl.length t.pending_invalid > 0 then begin
      let ids = Hashtbl.fold (fun id () acc -> id :: acc) t.pending_invalid [] in
      Hashtbl.reset t.pending_invalid;
      List.iter
        (fun id ->
          match Hashtbl.find_opt t.sh.p_upd id with
          | Some poss when Array.length poss > 0 && poss.(0) < t.redone ->
              ensure_base_loaded t ~redo_start ~bound:t.redone id
          | Some _ | None -> ())
        ids
    end

  let copy_page page =
    {
      Page.id = page.Page.id;
      values = Hashtbl.copy page.Page.values;
      page_lsn = page.Page.page_lsn;
      rec_lsn = page.Page.rec_lsn;
    }

  let run t ~log_overlay ~data_overlay ~log_device ~data_device =
    let sh = t.sh in
    let start = sh.s_wal.Wal.log_start_lba in
    let ss = sh.s_ss in
    let extent = Storage.Block.durable_extent log_device in
    let stream_len = max 0 ((extent - start) * ss) in
    (* --- Verified stream length: overlay writes shadow the trusted
       base prefix in application order; each contributes the bytes it
       is trusted for (by watermark, or by direct comparison against
       the future stream). The segments stay sorted and disjoint. *)
    let segs = ref [ (0, t.base_ok) ] in
    let shadow_add s e tr =
      let rec cut = function
        | [] -> []
        | (a, b) :: rest ->
            if b <= s then (a, b) :: cut rest
            else if a >= e then (a, b) :: rest
            else begin
              let rest' = cut rest in
              let rest' = if b > e then (e, b) :: rest' else rest' in
              if a < s then (a, s) :: rest' else rest'
            end
      in
      let l = cut !segs in
      let te = s + tr in
      segs :=
        (if te > s then
           let rec ins = function
             | [] -> [ (s, te) ]
             | (a, b) :: rest when a < s -> (a, b) :: ins rest
             | rest -> (s, te) :: rest
           in
           ins l
         else l)
    in
    List.iter
      (fun (lba, data, persisted, push_derived) ->
        if persisted > 0 && lba >= start then begin
          let off = (lba - start) * ss in
          let plen = persisted * ss in
          let tr =
            if push_derived && off + plen <= t.push_ok then plen
            else first_diff sh ~off data ~len:plen
          in
          shadow_add off (off + plen) tr
        end)
      log_overlay;
    let rec trusted_prefix cur = function
      | [] -> cur
      | (a, b) :: rest -> if a > cur then cur else trusted_prefix (max cur b) rest
    in
    let d = min (trusted_prefix 0 !segs) stream_len in
    let m = upper_bound sh.f_ends sh.f_n d in
    (* --- The unverified remainder, decoded from the point's actual
       bytes — picking up exactly where the shared prefix's last record
       ends, as the sequential scan's decode loop would. *)
    let p0 = if m > 0 then sh.f_ends.(m - 1) else 0 in
    let odd_recs, odd_ends =
      if d >= stream_len || stream_len <= p0 then ([||], [||])
      else begin
        let lba0 = start + (p0 / ss) in
        let base_off = (lba0 - start) * ss in
        let raw =
          Storage.Block.durable_read log_device ~lba:lba0 ~sectors:(extent - lba0)
        in
        let entries = ref [] and n = ref 0 and pos = ref (p0 - base_off) in
        let progressing = ref true in
        while !progressing do
          match Log_record.decode raw ~pos:!pos with
          | Some (record, size) ->
              pos := !pos + size;
              entries := (record, base_off + !pos) :: !entries;
              incr n
          | None -> progressing := false
        done;
        let recs = Array.make !n dummy_record and ends = Array.make !n 0 in
        List.iteri
          (fun j (r, e) ->
            recs.(!n - 1 - j) <- r;
            ends.(!n - 1 - j) <- e)
          !entries;
        (recs, ends)
      end
    in
    let n_odd = Array.length odd_recs in
    let durable_records = m + n_odd in
    let durable_end =
      Lsn.of_int
        (if n_odd > 0 then odd_ends.(n_odd - 1)
         else if m > 0 then sh.f_ends.(m - 1)
         else 0)
    in
    let records =
      let l = ref [] in
      for j = n_odd - 1 downto 0 do
        l := (odd_recs.(j), Lsn.of_int odd_ends.(j)) :: !l
      done;
      for i = m - 1 downto 0 do
        l := sh.f_pairs.(i) :: !l
      done;
      !l
    in
    (* --- Classification straight off the transaction index: a txid is
       in scope if it appears below the split or in the odd tail; its
       outcome is the last one below the split, shadowed by any odd
       outcome — exactly the sequential analysis's last-replace-wins. *)
    let keys_per_page = sh.s_pool.Buffer_pool.keys_per_page in
    let t_outcomes = Hashtbl.create 8 in
    let t_seen = Hashtbl.create 8 in
    let t_upd = Hashtbl.create 8 in  (* txid -> odd positions, newest-first *)
    let odd_touched = Hashtbl.create 8 in  (* page ids with odd updates *)
    for j = 0 to n_odd - 1 do
      match odd_recs.(j) with
      | Log_record.Begin { txid } -> Hashtbl.replace t_seen txid ()
      | Log_record.Update { txid; key; _ } ->
          Hashtbl.replace t_seen txid ();
          Hashtbl.replace t_upd txid
            ((m + j) :: Option.value ~default:[] (Hashtbl.find_opt t_upd txid));
          Hashtbl.replace odd_touched (Page.page_of_key ~keys_per_page key) ()
      | Log_record.Commit { txid } ->
          Hashtbl.replace t_seen txid ();
          Hashtbl.replace t_outcomes txid Won
      | Log_record.Abort { txid } ->
          Hashtbl.replace t_seen txid ();
          Hashtbl.replace t_outcomes txid Lost
      | Log_record.Commit_multi { txid; _ } ->
          Hashtbl.replace t_seen txid ();
          Hashtbl.replace t_outcomes txid Won
      | Log_record.Abort_multi { txid; _ } ->
          Hashtbl.replace t_seen txid ();
          Hashtbl.replace t_outcomes txid Lost
      | Log_record.Checkpoint _ | Log_record.Noop _ -> ()
    done;
    let committed = ref [] and aborted = ref [] and losers = ref [] in
    let base_outcome xi =
      if xi < 0 then None
      else begin
        let opos = sh.x_opos.(xi) in
        let j = ref (Array.length opos) in
        while !j > 0 && opos.(!j - 1) >= m do
          decr j
        done;
        if !j = 0 then None else Some sh.x_oval.(xi).(!j - 1)
      end
    in
    let classify txid xi =
      match
        match Hashtbl.find_opt t_outcomes txid with
        | Some _ as odd -> odd
        | None -> base_outcome xi
      with
      | Some Won -> committed := txid :: !committed
      | Some Lost -> aborted := txid :: !aborted
      | None -> losers := txid :: !losers
    in
    if n_odd = 0 then
      (* Descending scan, consing: the lists come out ascending with no
         per-point sort. *)
      for xi = Array.length sh.x_txids - 1 downto 0 do
        if sh.x_first.(xi) < m then classify sh.x_txids.(xi) xi
      done
    else begin
      for xi = Array.length sh.x_txids - 1 downto 0 do
        if sh.x_first.(xi) < m then classify sh.x_txids.(xi) xi
      done;
      Hashtbl.iter
        (fun txid () ->
          let xi = find_txid sh txid in
          if not (xi >= 0 && sh.x_first.(xi) < m) then classify txid xi)
        t_seen;
      committed := List.sort Int.compare !committed;
      aborted := List.sort Int.compare !aborted;
      losers := List.sort Int.compare !losers
    end;
    let committed = !committed and aborted = !aborted and losers = !losers in
    let redo_start =
      match Wal.read_master sh.s_wal ~device:log_device with
      | Some lsn -> lsn
      | None -> Lsn.zero
    in
    advance_redo t ~redo_start m;
    (* --- Point page table: copy the shared pages, then patch at page
       granularity everything the shared state does not describe for
       this point — pages under the point's data overlay, and pages
       redone past this point's split. A patched page reloads from the
       point's device and replays its own positions below the split. *)
    let pages = Hashtbl.create (max 16 (2 * Hashtbl.length t.r_pages)) in
    Hashtbl.iter (fun id page -> Hashtbl.replace pages id (copy_page page)) t.r_pages;
    let parities = Hashtbl.copy t.r_parities in
    let point_redo = ref t.base_redo_applied in
    let affected = Hashtbl.create 8 in
    List.iter
      (fun (lba, sectors) ->
        iter_range_ids t ~lba ~sectors (fun id -> Hashtbl.replace affected id ()))
      data_overlay;
    if t.redone > m then
      for i = m to t.redone - 1 do
        match sh.f_recs.(i) with
        | Log_record.Update { key; _ } ->
            Hashtbl.replace affected (Page.page_of_key ~keys_per_page key) ()
        | _ -> ()
      done;
    Hashtbl.iter
      (fun id () ->
        if Hashtbl.mem t.r_seen id then begin
          Hashtbl.remove pages id;
          Hashtbl.remove parities id;
          (match Hashtbl.find_opt t.r_counts id with
          | Some c -> point_redo := !point_redo - c
          | None -> ());
          let candidate =
            (match Hashtbl.find_opt sh.p_upd id with
            | Some poss -> Array.length poss > 0 && poss.(0) < m
            | None -> false)
            || Hashtbl.mem odd_touched id
          in
          if candidate then begin
            (match load_page_slots ~data_device ~pool_config:sh.s_pool id with
            | Some (parity, page) ->
                Hashtbl.replace pages id page;
                Hashtbl.replace parities id parity
            | None -> ());
            point_redo := !point_redo + replay_page sh ~redo_start ~pages id ~bound:m
          end
        end)
      affected;
    let point_seen = Hashtbl.create 8 in
    (* An odd candidate the base cache never probed loads from the
       point device — the sequential pass probes every candidate before
       redo, and probing reads only media, so the order is immaterial. *)
    let ensure_point_loaded id =
      if not (Hashtbl.mem t.r_seen id || Hashtbl.mem point_seen id) then begin
        Hashtbl.replace point_seen id ();
        match load_page_slots ~data_device ~pool_config:sh.s_pool id with
        | Some (parity, page) ->
            Hashtbl.replace pages id page;
            Hashtbl.replace parities id parity
        | None -> ()
      end
    in
    let page_of_key key = find_or_create pages (Page.page_of_key ~keys_per_page key) in
    for j = 0 to n_odd - 1 do
      match odd_recs.(j) with
      | Log_record.Update { key; after; _ } ->
          ensure_point_loaded (Page.page_of_key ~keys_per_page key);
          let lsn = Lsn.of_int odd_ends.(j) in
          if Lsn.(redo_start < lsn) then begin
            let page = page_of_key key in
            if Lsn.(page.Page.page_lsn < lsn) then begin
              (if String.length after = 0 then begin
                 Hashtbl.remove page.Page.values key;
                 page.Page.page_lsn <- lsn
               end
               else Page.set page ~key ~value:after ~lsn);
              incr point_redo
            end
          end
      | Log_record.Begin _ | Log_record.Commit _ | Log_record.Abort _
      | Log_record.Commit_multi _ | Log_record.Abort_multi _
      | Log_record.Checkpoint _ | Log_record.Noop _ ->
          ()
    done;
    (* --- Undo the losers newest-first across both parts, positions
       straight from the per-transaction index. *)
    let positions = ref [] in
    List.iter
      (fun txid ->
        (match find_txid sh txid with
        | -1 -> ()
        | xi ->
            let arr = sh.x_upd.(xi) in
            let nn = lower_bound arr (Array.length arr) m in
            for q = 0 to nn - 1 do
              positions := arr.(q) :: !positions
            done);
        match Hashtbl.find_opt t_upd txid with
        | Some l -> positions := List.rev_append l !positions
        | None -> ())
      losers;
    let positions = List.sort (fun a b -> Int.compare b a) !positions in
    let undo_applied = ref 0 in
    List.iter
      (fun i ->
        match (if i < m then sh.f_recs.(i) else odd_recs.(i - m)) with
        | Log_record.Update { key; before; _ } ->
            let page = page_of_key key in
            if String.length before = 0 then Hashtbl.remove page.Page.values key
            else Hashtbl.replace page.Page.values key before;
            incr undo_applied
        | _ -> assert false)
      positions;
    let store = Hashtbl.create 1024 in
    Hashtbl.iter
      (fun _id page ->
        Hashtbl.iter (fun key value -> Hashtbl.replace store key value) page.Page.values)
      pages;
    note_metrics
      {
        store;
        records;
        parities;
        committed;
        aborted;
        losers;
        durable_records;
        durable_end;
        redo_start;
        redo_applied = !point_redo;
        undo_applied = !undo_applied;
        pages_loaded = Hashtbl.length pages;
      }
end
