(* Exhaustive small-scope model checking of the trusted ring buffer.

   The buffer is the component whose correctness the paper buys with
   verification, so it gets more than example-based tests: we enumerate
   *every* sequence of operations up to a bounded depth over a small
   alphabet, and after each sequence check the implementation against a
   reference model (writes applied in order to a flat sector array) and
   its internal invariants. Small-scope exhaustiveness catches the
   ordering/accounting interactions random testing tends to miss. *)

open Desim
open Testu

let sector = 512

type op =
  | Push of { lba : int; sectors : int }
  | Drain_one  (* pop_coalesced with a small batch limit *)
  | Drain_all

let alphabet =
  [
    Push { lba = 0; sectors = 1 };
    Push { lba = 1; sectors = 2 };
    Push { lba = 3; sectors = 1 };
    Drain_one;
    Drain_all;
  ]

let max_depth = 6
let media_sectors = 16
let capacity_bytes = 5 * sector

(* Reference model: writes applied strictly in order. *)
type model = {
  media : bytes;  (* one byte per sector: the fill character *)
  mutable queued : (int * int * char) list;  (* lba, sectors, fill; oldest first *)
}

let fill_char step = Char.chr (97 + (step mod 26))

let model_apply model (lba, sectors, fill) =
  for s = lba to lba + sectors - 1 do
    Bytes.set model.media s fill
  done

let model_push model ~lba ~sectors ~fill ~accepted =
  if accepted then model.queued <- model.queued @ [ (lba, sectors, fill) ]

let model_bytes model =
  List.fold_left (fun acc (_, sectors, _) -> acc + (sectors * sector)) 0 model.queued

(* Drain one coalesced batch from the model: start at the head, take
   followers that begin within or adjacent to the accumulated range and
   fit the byte budget. Entries outside the range are *skipped over*
   (they stay queued, in order) rather than ending the batch — that is
   the region-aware drain — but a later entry overlapping a skipped
   one is never taken, so writes to any given sector stay in push
   order. An in-range entry over the byte budget ends the batch —
   mirroring [Ring_buffer.pop_coalesced]. *)
let model_drain_batch model ~max_bytes =
  match model.queued with
  | [] -> false
  | (lba0, sectors0, fill0) :: rest ->
      model_apply model (lba0, sectors0, fill0);
      let base = lba0 in
      let end_lba = ref (lba0 + sectors0) in
      let budget = ref (sectors0 * sector) in
      let skipped = ref [] in
      let overlaps_skipped lba stop =
        List.exists (fun (lo, hi) -> lba < hi && lo < stop) !skipped
      in
      let stopped = ref false in
      let kept = ref [] in
      List.iter
        (fun ((lba, sectors, _) as entry) ->
          let stop = lba + sectors in
          if
            (not !stopped)
            && lba >= base && lba <= !end_lba
            && not (overlaps_skipped lba stop)
          then
            if !budget + (sectors * sector) <= max_bytes then begin
              model_apply model entry;
              end_lba := max !end_lba stop;
              budget := !budget + (sectors * sector)
            end
            else begin
              stopped := true;
              kept := entry :: !kept
            end
          else begin
            skipped := (lba, stop) :: !skipped;
            kept := entry :: !kept
          end)
        rest;
      model.queued <- List.rev !kept;
      true

let media_of_impl impl_media =
  (* Reduce the implementation's sector store to fill characters. *)
  Bytes.init media_sectors (fun s ->
      (Storage.Block.Media.read impl_media ~lba:s ~sectors:1).[0])

let check_equivalence sequence =
  let ring = Rapilog.Ring_buffer.create ~sector_size:sector ~capacity_bytes in
  let impl_media =
    Storage.Block.Media.create ~sector_size:sector ~capacity_sectors:media_sectors
  in
  let model = { media = Bytes.make media_sectors '\000'; queued = [] } in
  let drain_one () =
    let max_bytes = 3 * sector in
    match Rapilog.Ring_buffer.pop_coalesced ring ~max_bytes with
    | Some { Rapilog.Ring_buffer.lba; data } ->
        Storage.Block.Media.write impl_media ~lba ~data;
        let model_had = model_drain_batch model ~max_bytes in
        if not model_had then Alcotest.fail "impl drained, model empty"
    | None -> if model.queued <> [] then Alcotest.fail "model queued, impl empty"
  in
  List.iteri
    (fun step op ->
      (match op with
      | Push { lba; sectors } ->
          let fill = fill_char step in
          let data = String.make (sectors * sector) fill in
          let accepted = Rapilog.Ring_buffer.try_push ring ~lba ~data in
          let model_fits = model_bytes model + (sectors * sector) <= capacity_bytes in
          if accepted <> model_fits then
            Alcotest.failf "admission mismatch at step %d" step;
          model_push model ~lba ~sectors ~fill ~accepted
      | Drain_one -> drain_one ()
      | Drain_all ->
          while not (Rapilog.Ring_buffer.is_empty ring) do
            drain_one ()
          done);
      (* Invariants after every operation. *)
      if Rapilog.Ring_buffer.bytes_used ring <> model_bytes model then
        Alcotest.failf "byte accounting diverged at step %d" step;
      if Rapilog.Ring_buffer.length ring <> List.length model.queued then
        Alcotest.failf "queue length diverged at step %d" step)
    sequence;
  (* Final: drain everything and compare media images. *)
  while not (Rapilog.Ring_buffer.is_empty ring) do
    drain_one ()
  done;
  if not (Bytes.equal (media_of_impl impl_media) model.media) then
    Alcotest.fail "media contents diverged"

let enumerate depth visit =
  let count = ref 0 in
  let rec go prefix remaining =
    if remaining = 0 then begin
      incr count;
      visit (List.rev prefix)
    end
    else
      List.iter (fun op -> go (op :: prefix) (remaining - 1)) alphabet
  in
  go [] depth;
  !count

let exhaustive_up_to_depth () =
  let total = ref 0 in
  for depth = 1 to max_depth do
    total := !total + enumerate depth check_equivalence
  done;
  (* 5 + 25 + ... + 5^6 sequences, each fully checked. *)
  Alcotest.(check int) "sequences explored" 19530 !total

let suites =
  [
    ( "rapilog.model_check",
      [ case "ring buffer vs reference model, exhaustive to depth 6" exhaustive_up_to_depth ] );
  ]

(* Random deep sequences complement the exhaustive shallow ones: depth 40
   over a wider alphabet, sampled. *)
let random_deep_sequences =
  let op_gen =
    QCheck2.Gen.(
      oneof
        [
          map2 (fun lba sectors -> Push { lba; sectors }) (int_range 0 10) (int_range 1 3);
          return Drain_one;
          return Drain_all;
        ])
  in
  prop "ring buffer vs model, random depth-40 sequences" ~count:300
    QCheck2.Gen.(list_size (return 40) op_gen)
    (fun sequence ->
      match check_equivalence sequence with
      | () -> true
      | exception Alcotest.Test_error -> false)

(* -- Post-power-cut regime, exhaustive ------------------------------------

   The ring-buffer checks above cover the data path; this second model
   check covers the *admission state machine* around a power failure.
   For every sequence of {write, big write, cut, wait} up to a bounded
   depth, run the real trusted logger (tiny buffer, slow guest copy, a
   real disk drain) and assert the post-cut regime:
   - no write is acknowledged at or after the cut instant — admission
     closes atomically with the notification, including for writers
     already blocked in backpressure or mid-copy;
   - every write acknowledged before the cut is durable on the physical
     device once the simulation settles (the drain finishes what was
     admitted);
   - the buffer always drains to empty (conservation), cut or no cut.

   The deliberately tight configuration — a 4-sector buffer over a slow
   copy path — parks writers at every blocking point, so sequences
   exercise cut-while-blocked, cut-mid-copy and cut-with-full-buffer
   interleavings that example tests would have to hand-craft. *)

type pc_op = Pc_write | Pc_write_big | Pc_cut | Pc_wait

let pc_alphabet = [ Pc_write; Pc_write_big; Pc_cut; Pc_wait ]
let pc_max_depth = 4
let pc_spacing = Time.us 400

let pc_check_sequence sequence =
  let sim = Sim.create ~seed:5L () in
  let device = Storage.Hdd.create sim Storage.Hdd.default_7200rpm in
  let trusted =
    Hypervisor.Domain.create sim ~name:"rapilog" ~kind:Hypervisor.Domain.Trusted
  in
  let logger =
    Rapilog.Trusted_logger.create sim ~domain:trusted
      {
        Rapilog.Trusted_logger.buffer_bytes = 4 * sector;
        copy_bandwidth = 1e6;  (* 512 us per sector: copies straddle ops *)
        drain_max_bytes = 2 * sector;
      }
      ~device
  in
  let backend_domain =
    Hypervisor.Domain.create sim ~name:"drv" ~kind:Hypervisor.Domain.Trusted
  in
  let frontend =
    Hypervisor.Virtio_blk.create sim ~ipc:Hypervisor.Ipc.default_sel4
      ~backend_domain
      (Rapilog.Trusted_logger.backend logger)
  in
  let guest =
    Hypervisor.Domain.create sim ~name:"guest" ~kind:Hypervisor.Domain.Guest
  in
  let cut_at = ref None in
  (* Per write: lba, fill data, ack instant (None = never acknowledged). *)
  let writes = ref [] in
  List.iteri
    (fun step op ->
      let at = Time.add Time.zero (Time.mul_span pc_spacing step) in
      match op with
      | Pc_write | Pc_write_big ->
          let sectors = if op = Pc_write then 1 else 4 in
          let lba = step * 4 in
          let data = String.make (sectors * sector) (fill_char step) in
          let acked = ref None in
          writes := (lba, data, acked) :: !writes;
          Sim.schedule_at sim at (fun () ->
              ignore
                (Hypervisor.Domain.spawn guest (fun () ->
                     Storage.Block.write frontend ~lba data;
                     acked := Some (Sim.now sim))))
      | Pc_cut ->
          Sim.schedule_at sim at (fun () ->
              (if !cut_at = None then cut_at := Some (Sim.now sim));
              Rapilog.Trusted_logger.notify_power_fail logger)
      | Pc_wait -> ())
    sequence;
  Sim.run sim;
  (* Admission closed: nothing acknowledged at or after the cut. *)
  (match !cut_at with
  | Some cut ->
      if Rapilog.Trusted_logger.accepting logger then
        Alcotest.fail "still accepting after power-fail notification";
      List.iter
        (fun (_, _, acked) ->
          match !acked with
          | Some at when Time.(cut <= at) ->
              Alcotest.failf "write acknowledged %dns after the cut"
                (Time.span_to_ns (Time.diff at cut))
          | _ -> ())
        !writes
  | None -> ());
  (* Conservation: the buffer always drains to empty. *)
  if not (Rapilog.Durability.logger_conservation logger) then
    Alcotest.failf "buffer not drained: %d bytes left"
      (Rapilog.Trusted_logger.buffered_bytes logger);
  (* Everything acknowledged is durable on the physical device. *)
  List.iter
    (fun (lba, data, acked) ->
      if !acked <> None then
        let sectors = String.length data / sector in
        let durable = Storage.Block.durable_read device ~lba ~sectors in
        if durable <> data then
          Alcotest.failf "acked write at lba %d not durable" lba)
    !writes

let pc_exhaustive () =
  let count = ref 0 in
  let rec go prefix remaining =
    if remaining = 0 then begin
      incr count;
      pc_check_sequence (List.rev prefix)
    end
    else List.iter (fun op -> go (op :: prefix) (remaining - 1)) pc_alphabet
  in
  for depth = 1 to pc_max_depth do
    go [] depth
  done;
  (* 4 + 16 + 64 + 256 sequences, each against the real logger. *)
  Alcotest.(check int) "sequences explored" 340 !count

(* -- Quorum replication protocol, exhaustive ------------------------------

   RapiLog-Q's commit/election state machine (Net.Quorum.Protocol) is
   the component whose safety argument carries the multi-node claim, so
   it gets the same treatment as the ring buffer: exhaustive enumeration
   of every operation interleaving up to a bounded depth, checking
   committed-prefix monotonicity after every step. The fault envelope is
   the protocol's own contract — the primary plus at most k - 1 replicas
   may die. Two cells share the same envelope (one replica loss):

   - quorum 2 of 3 must show zero violations over the whole space —
     a quorum-acked entry survives the primary plus one replica, through
     any election;
   - quorum 1 of 3 must show violations — one acked copy plus the
     primary is the entire durability domain, and the checker's job is
     to prove it can find that hole (the teeth check for the checker).

   Deliver is composed eagerly with the leader's collect of that node's
   responses: each [Q_deliver r] processes one inbound message and then
   drains [r]'s outbox. Per-link FIFO cannot produce the response
   interleavings this collapses, so no reachable commit/adoption
   ordering is lost, and the state space stays tractable. *)

module QP = Net.Quorum.Protocol

type q_op =
  | Q_append
  | Q_deliver of int
  | Q_lose_primary
  | Q_lose of int
  | Q_campaign of int

let q_replicas = 3
let q_max_depth = 11
let q_max_appends = 3
let q_max_campaigns = 2
let q_max_replica_losses = 1  (* the k = 2 envelope: primary + k - 1 *)

let q_apply t = function
  | Q_append -> ignore (QP.append t)
  | Q_deliver r ->
      QP.deliver t r;
      while QP.can_collect t r do
        QP.collect t r
      done
  | Q_lose_primary -> QP.lose_primary t
  | Q_lose r -> QP.lose t r
  | Q_campaign r -> QP.campaign t r

let q_enabled t ~appends ~rlosses ~campaigns =
  let ops = ref [] in
  let add op = ops := op :: !ops in
  if campaigns < q_max_campaigns then
    for r = q_replicas - 1 downto 0 do
      if QP.can_campaign t r then add (Q_campaign r)
    done;
  if rlosses < q_max_replica_losses then
    for r = q_replicas - 1 downto 0 do
      if QP.can_lose t r then add (Q_lose r)
    done;
  if QP.can_lose_primary t then add Q_lose_primary;
  for r = q_replicas - 1 downto 0 do
    if QP.can_deliver t r then add (Q_deliver r)
  done;
  if appends < q_max_appends && QP.can_append t then add Q_append;
  !ops

(* Explore every schedule; returns (states visited, violating states). *)
let q_explore ~quorum =
  let states = ref 0 and violations = ref 0 in
  let rec go t depth appends rlosses campaigns =
    incr states;
    if QP.check t <> [] then incr violations;
    if depth < q_max_depth then
      List.iter
        (fun op ->
          let t' = QP.copy t in
          let commit_before = QP.commit_watermark t' in
          q_apply t' op;
          if QP.commit_watermark t' < commit_before then begin
            (* Monotonicity is also what [check] defends, but assert the
               watermark itself so a regression cannot hide behind a
               log-presence argument. *)
            incr violations
          end;
          go t' (depth + 1)
            (appends + match op with Q_append -> 1 | _ -> 0)
            (rlosses + match op with Q_lose _ -> 1 | _ -> 0)
            (campaigns + match op with Q_campaign _ -> 1 | _ -> 0))
        (q_enabled t ~appends ~rlosses ~campaigns)
  in
  go (QP.create ~replicas:q_replicas ~quorum) 0 0 0 0;
  (!states, !violations)

let q_exhaustive_majority () =
  let states, violations = q_explore ~quorum:2 in
  Alcotest.(check int) "no state violates committed-prefix monotonicity" 0
    violations;
  Alcotest.(check int) "states explored" 940664 states

let q_exhaustive_quorum_one () =
  let _, violations = q_explore ~quorum:1 in
  Alcotest.(check bool) "quorum 1 demonstrably loses committed entries" true
    (violations > 0)

let suites =
  suites
  @ [
      ("rapilog.model_check_random", [ random_deep_sequences ]);
      ( "rapilog.model_check_power",
        [ case "post-cut regime, exhaustive to depth 4" pc_exhaustive ] );
      ( "rapilog.model_check_quorum",
        [
          case "committed prefix monotone, exhaustive to depth 11"
            q_exhaustive_majority;
          case "quorum of one violates within the same envelope"
            q_exhaustive_quorum_one;
        ] );
    ]

(* -- Buffer pool: no update lost to an eviction in flight ------------------

   A dirty victim stays cached, and hittable, while its eviction flush
   is on the device. On a one-page pool: page 0 holds "v1" and is dirty;
   a miss on page 1 evicts it; 1 us into that write a second process
   updates key 0 to "v2" through a hit. Evicting the page anyway would
   drop "v2" and the refetch would read the flushed "v1". *)

let eviction_keeps_update_made_during_flush () =
  let sim = Sim.create () in
  let dev = Storage.Ssd.create sim Storage.Ssd.default in
  let config = { Dbms.Buffer_pool.default_config with capacity_pages = 1 } in
  let pool =
    Dbms.Buffer_pool.create sim config ~device:dev ~wal_force:(fun ~page:_ _ -> ())
  in
  let key_of_page id = id * config.Dbms.Buffer_pool.keys_per_page in
  let update key value lsn =
    Dbms.Buffer_pool.with_page pool ~key (fun page ->
        let lsn = Dbms.Lsn.of_int lsn in
        Dbms.Page.set page ~key ~value ~lsn;
        Dbms.Buffer_pool.mark_dirty pool page ~lsn)
  in
  let read_back = ref None in
  ignore
    (Process.spawn sim ~name:"evictor" (fun () ->
         update (key_of_page 0) "v1" 1;
         Dbms.Buffer_pool.with_page pool ~key:(key_of_page 1) ignore;
         read_back :=
           Dbms.Buffer_pool.with_page pool ~key:(key_of_page 0) (fun page ->
               Dbms.Page.get page ~key:(key_of_page 0))));
  ignore
    (Process.spawn sim ~name:"updater" (fun () ->
         Process.sleep (Time.us 1);
         update (key_of_page 0) "v2" 2));
  Sim.run sim;
  Alcotest.(check (option string)) "the update made during the flush" (Some "v2")
    !read_back

let suites =
  suites
  @ [
      ( "rapilog.model_check_pool",
        [
          case "no update lost to eviction in flight"
            eviction_keeps_update_made_during_flush;
        ] );
    ]
