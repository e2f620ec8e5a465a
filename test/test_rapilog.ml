(* Tests for the paper's core contribution: the trusted ring buffer, the
   logger and its durability contract, and the guarantee checker. *)

open Desim
open Testu

let sector = 512
let data_of char sectors = String.make (sector * sectors) char

(* -- Ring_buffer -------------------------------------------------------- *)

let ring_fifo () =
  let ring = Rapilog.Ring_buffer.create ~sector_size:sector ~capacity_bytes:65536 in
  Alcotest.(check bool) "push a" true
    (Rapilog.Ring_buffer.try_push ring ~lba:0 ~data:(data_of 'a' 1));
  Alcotest.(check bool) "push b" true
    (Rapilog.Ring_buffer.try_push ring ~lba:9 ~data:(data_of 'b' 1));
  (match Rapilog.Ring_buffer.pop ring with
  | Some { Rapilog.Ring_buffer.lba; data } ->
      Alcotest.(check int) "first lba" 0 lba;
      Alcotest.(check string) "first data" (data_of 'a' 1) data
  | None -> Alcotest.fail "empty");
  match Rapilog.Ring_buffer.pop ring with
  | Some { Rapilog.Ring_buffer.lba; _ } -> Alcotest.(check int) "second lba" 9 lba
  | None -> Alcotest.fail "empty"

let ring_capacity () =
  let ring = Rapilog.Ring_buffer.create ~sector_size:sector ~capacity_bytes:(2 * sector) in
  Alcotest.(check bool) "fits" true (Rapilog.Ring_buffer.fits ring sector);
  Alcotest.(check bool) "first" true
    (Rapilog.Ring_buffer.try_push ring ~lba:0 ~data:(data_of 'x' 1));
  Alcotest.(check bool) "second" true
    (Rapilog.Ring_buffer.try_push ring ~lba:1 ~data:(data_of 'x' 1));
  Alcotest.(check bool) "third rejected" false
    (Rapilog.Ring_buffer.try_push ring ~lba:2 ~data:(data_of 'x' 1));
  ignore (Rapilog.Ring_buffer.pop ring);
  Alcotest.(check bool) "space reclaimed" true
    (Rapilog.Ring_buffer.try_push ring ~lba:2 ~data:(data_of 'x' 1))

let ring_accounting () =
  let ring = Rapilog.Ring_buffer.create ~sector_size:sector ~capacity_bytes:65536 in
  ignore (Rapilog.Ring_buffer.try_push ring ~lba:0 ~data:(data_of 'x' 3));
  Alcotest.(check int) "bytes used" (3 * sector) (Rapilog.Ring_buffer.bytes_used ring);
  Alcotest.(check int) "length" 1 (Rapilog.Ring_buffer.length ring);
  Alcotest.(check int) "pushed" (3 * sector) (Rapilog.Ring_buffer.pushed_bytes ring);
  ignore (Rapilog.Ring_buffer.pop ring);
  Alcotest.(check int) "popped" (3 * sector) (Rapilog.Ring_buffer.popped_bytes ring);
  Alcotest.(check bool) "empty" true (Rapilog.Ring_buffer.is_empty ring)

let ring_coalesce_adjacent () =
  let ring = Rapilog.Ring_buffer.create ~sector_size:sector ~capacity_bytes:65536 in
  ignore (Rapilog.Ring_buffer.try_push ring ~lba:0 ~data:(data_of 'a' 2));
  ignore (Rapilog.Ring_buffer.try_push ring ~lba:2 ~data:(data_of 'b' 2));
  match Rapilog.Ring_buffer.pop_coalesced ring ~max_bytes:65536 with
  | Some { Rapilog.Ring_buffer.lba; data } ->
      Alcotest.(check int) "merged base" 0 lba;
      Alcotest.(check string) "merged data" (data_of 'a' 2 ^ data_of 'b' 2) data;
      Alcotest.(check bool) "fully drained" true (Rapilog.Ring_buffer.is_empty ring)
  | None -> Alcotest.fail "empty"

let ring_coalesce_overlap_later_wins () =
  let ring = Rapilog.Ring_buffer.create ~sector_size:sector ~capacity_bytes:65536 in
  (* Overlapping tail-sector rewrite, as the WAL produces. *)
  ignore (Rapilog.Ring_buffer.try_push ring ~lba:0 ~data:(data_of 'a' 2));
  ignore (Rapilog.Ring_buffer.try_push ring ~lba:1 ~data:(data_of 'b' 2));
  match Rapilog.Ring_buffer.pop_coalesced ring ~max_bytes:65536 with
  | Some { Rapilog.Ring_buffer.data; _ } ->
      Alcotest.(check string) "later write wins the overlap"
        (data_of 'a' 1 ^ data_of 'b' 2)
        data
  | None -> Alcotest.fail "empty"

let ring_coalesce_respects_max_bytes () =
  let ring = Rapilog.Ring_buffer.create ~sector_size:sector ~capacity_bytes:65536 in
  for i = 0 to 7 do
    ignore (Rapilog.Ring_buffer.try_push ring ~lba:i ~data:(data_of 'x' 1))
  done;
  match Rapilog.Ring_buffer.pop_coalesced ring ~max_bytes:(4 * sector) with
  | Some { Rapilog.Ring_buffer.data; _ } ->
      Alcotest.(check int) "bounded" (4 * sector) (String.length data);
      Alcotest.(check int) "rest still queued" 4 (Rapilog.Ring_buffer.length ring)
  | None -> Alcotest.fail "empty"

let ring_coalesce_stops_at_gap () =
  let ring = Rapilog.Ring_buffer.create ~sector_size:sector ~capacity_bytes:65536 in
  ignore (Rapilog.Ring_buffer.try_push ring ~lba:0 ~data:(data_of 'a' 1));
  ignore (Rapilog.Ring_buffer.try_push ring ~lba:10 ~data:(data_of 'b' 1));
  (match Rapilog.Ring_buffer.pop_coalesced ring ~max_bytes:65536 with
  | Some { Rapilog.Ring_buffer.lba; data } ->
      Alcotest.(check int) "only the head run" sector (String.length data);
      Alcotest.(check int) "at base" 0 lba
  | None -> Alcotest.fail "empty");
  Alcotest.(check int) "gap entry left" 1 (Rapilog.Ring_buffer.length ring)

(* A pop must not allocate per queued entry: the scan's scratch lives in
   the ring. The queue interleaves two regions, so every pop skips an
   entry of the other region before the batch limit stops it, and takes
   one sector. Counted with [Gc.allocated_bytes], not [Gc.minor_words]:
   an array above 256 words is allocated straight in the major heap. *)
let ring_pop_allocation_flat () =
  let per_pop queued =
    let ring =
      Rapilog.Ring_buffer.create ~sector_size:sector ~capacity_bytes:(queued * sector)
    in
    for i = 0 to queued - 1 do
      let lba = if i land 1 = 0 then i / 2 else 1_000_000 + (i / 2) in
      ignore (Rapilog.Ring_buffer.try_push ring ~lba ~data:(data_of 'p' 1))
    done;
    let pops = 100 in
    Gc.full_major ();
    let before = Gc.allocated_bytes () in
    for _ = 1 to pops do
      ignore (Sys.opaque_identity (Rapilog.Ring_buffer.pop_coalesced ring ~max_bytes:sector))
    done;
    Gc.full_major ();
    (Gc.allocated_bytes () -. before) /. float_of_int (pops * (Sys.word_size / 8))
  in
  (* Both sizes pop the same one-sector batches, so the merged buffer
     cancels out of the comparison. *)
  let small = per_pop 1_000 and large = per_pop 10_000 in
  if large > small then
    Alcotest.failf "a pop allocates %.1f words at 10,000 queued entries vs %.1f at 1,000"
      large small

(* Property: draining with coalescing produces the same media contents as
   applying every write in order. *)
let ring_coalesce_equivalence_prop =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 40)
        (pair (int_range 0 30) (int_range 1 4)))
  in
  prop "coalesced drain equals in-order application" ~count:100 gen (fun writes ->
      let apply_naive media =
        List.iteri
          (fun i (lba, sectors) ->
            Storage.Block.Media.write media ~lba
              ~data:(String.make (sectors * sector) (Char.chr (65 + (i mod 26)))))
          writes
      in
      let naive = Storage.Block.Media.create ~sector_size:sector ~capacity_sectors:128 in
      apply_naive naive;
      let coalesced = Storage.Block.Media.create ~sector_size:sector ~capacity_sectors:128 in
      let ring =
        Rapilog.Ring_buffer.create ~sector_size:sector ~capacity_bytes:(1 lsl 20)
      in
      List.iteri
        (fun i (lba, sectors) ->
          ignore
            (Rapilog.Ring_buffer.try_push ring ~lba
               ~data:(String.make (sectors * sector) (Char.chr (65 + (i mod 26))))))
        writes;
      let rec drain () =
        match Rapilog.Ring_buffer.pop_coalesced ring ~max_bytes:(8 * sector) with
        | Some { Rapilog.Ring_buffer.lba; data } ->
            Storage.Block.Media.write coalesced ~lba ~data;
            drain ()
        | None -> ()
      in
      drain ();
      let same = ref true in
      for lba = 0 to 127 do
        if
          Storage.Block.Media.read naive ~lba ~sectors:1
          <> Storage.Block.Media.read coalesced ~lba ~sectors:1
        then same := false
      done;
      !same)

(* -- Trusted_logger ------------------------------------------------------- *)

type logger_rig = {
  sim : Sim.t;
  logger : Rapilog.Trusted_logger.t;
  device : Storage.Block.t;
  frontend : Storage.Block.t;
  guest : Hypervisor.Domain.t;
}

let make_logger_rig ?(config = Rapilog.Trusted_logger.default_config) ?(seed = 1L) () =
  let sim = Sim.create ~seed () in
  let device = Storage.Hdd.create sim Storage.Hdd.default_7200rpm in
  let trusted = Hypervisor.Domain.create sim ~name:"rapilog" ~kind:Hypervisor.Domain.Trusted in
  let logger = Rapilog.Trusted_logger.create sim ~domain:trusted config ~device in
  let backend_domain =
    Hypervisor.Domain.create sim ~name:"drv" ~kind:Hypervisor.Domain.Trusted
  in
  let frontend =
    Hypervisor.Virtio_blk.create sim ~ipc:Hypervisor.Ipc.default_sel4 ~backend_domain
      (Rapilog.Trusted_logger.backend logger)
  in
  let guest = Hypervisor.Domain.create sim ~name:"guest" ~kind:Hypervisor.Domain.Guest in
  { sim; logger; device; frontend; guest }

let logger_ack_precedes_media () =
  let rig = make_logger_rig () in
  let ack_ns = ref 0 in
  let durable_at_ack = ref "" in
  ignore
    (Hypervisor.Domain.spawn rig.guest (fun () ->
         let before = Sim.now rig.sim in
         Storage.Block.write rig.frontend ~lba:0 (data_of 'l' 1);
         ack_ns := Time.span_to_ns (Time.diff (Sim.now rig.sim) before);
         durable_at_ack := Storage.Block.durable_read rig.device ~lba:0 ~sectors:1));
  Sim.run rig.sim;
  (* Ack within IPC + copy time, far below a disk rotation. *)
  Alcotest.(check bool)
    (Printf.sprintf "fast ack (%dns)" !ack_ns)
    true (!ack_ns < 100_000);
  Alcotest.(check string) "media not yet written at ack time"
    (String.make sector '\000') !durable_at_ack;
  (* After the drain runs, the data is durable. *)
  Alcotest.(check string) "eventually durable" (data_of 'l' 1)
    (Storage.Block.durable_read rig.device ~lba:0 ~sectors:1)

let logger_quiesce_drains_everything () =
  let rig = make_logger_rig () in
  ignore
    (Hypervisor.Domain.spawn rig.guest (fun () ->
         for i = 0 to 19 do
           Storage.Block.write rig.frontend ~lba:i (data_of 'q' 2)
         done));
  ignore
    (Process.spawn rig.sim (fun () ->
         Process.sleep (Time.ms 1);
         Rapilog.Trusted_logger.quiesce rig.logger;
         Alcotest.(check int) "buffer empty after quiesce" 0
           (Rapilog.Trusted_logger.buffered_bytes rig.logger)));
  Sim.run rig.sim;
  Alcotest.(check bool) "conservation" true
    (Rapilog.Durability.logger_conservation rig.logger);
  Alcotest.(check string) "all data on media" (data_of 'q' 21)
    (Storage.Block.durable_read rig.device ~lba:0 ~sectors:21)

let logger_coalesces_drain_writes () =
  let rig = make_logger_rig () in
  ignore
    (Hypervisor.Domain.spawn rig.guest (fun () ->
         for i = 0 to 63 do
           Storage.Block.write rig.frontend ~lba:i (data_of 'c' 2)
         done));
  Sim.run rig.sim;
  let acked = Rapilog.Trusted_logger.acked_writes rig.logger in
  let drained = Rapilog.Trusted_logger.drain_writes rig.logger in
  Alcotest.(check int) "all acked" 64 acked;
  Alcotest.(check bool)
    (Printf.sprintf "coalesced (%d physical writes)" drained)
    true (drained < acked)

let logger_backpressure_on_tiny_buffer () =
  let config =
    {
      Rapilog.Trusted_logger.default_config with
      Rapilog.Trusted_logger.buffer_bytes = 4 * sector;
    }
  in
  let rig = make_logger_rig ~config () in
  let completed = ref 0 in
  ignore
    (Hypervisor.Domain.spawn rig.guest (fun () ->
         for i = 0 to 63 do
           Storage.Block.write rig.frontend ~lba:i (data_of 'b' 1)
         done;
         completed := 64));
  Sim.run rig.sim;
  Alcotest.(check int) "all writes eventually accepted" 64 !completed;
  Alcotest.(check bool)
    (Printf.sprintf "stalled (%d)" (Rapilog.Trusted_logger.backpressure_stalls rig.logger))
    true
    (Rapilog.Trusted_logger.backpressure_stalls rig.logger > 0);
  Alcotest.(check string) "and still correct" (data_of 'b' 64)
    (Storage.Block.durable_read rig.device ~lba:0 ~sectors:64)

let logger_survives_guest_crash () =
  let rig = make_logger_rig () in
  let acked = ref 0 in
  ignore
    (Hypervisor.Domain.spawn rig.guest (fun () ->
         for i = 0 to 31 do
           Storage.Block.write rig.frontend ~lba:i (data_of 's' 1);
           incr acked
         done));
  (* Crash the guest while data is buffered but not yet drained. *)
  Sim.schedule_after rig.sim (Time.us 200) (fun () ->
      Hypervisor.Domain.crash rig.guest);
  Sim.run rig.sim;
  Alcotest.(check bool) "some writes acked before the crash" true (!acked > 0);
  (* Everything acknowledged must be on media: the buffer outlives the
     guest and the drain completed. *)
  Alcotest.(check string)
    (Printf.sprintf "%d acked sectors durable" !acked)
    (String.concat "" (List.init !acked (fun _ -> data_of 's' 1)))
    (Storage.Block.durable_read rig.device ~lba:0 ~sectors:(max 1 !acked))

let logger_power_fail_stops_admission () =
  let rig = make_logger_rig () in
  let late_ack = ref false in
  ignore
    (Hypervisor.Domain.spawn rig.guest (fun () ->
         Storage.Block.write rig.frontend ~lba:0 (data_of 'p' 1);
         Process.sleep (Time.ms 1);
         (* This write arrives after the power-fail notification: it must
            never be acknowledged. *)
         Storage.Block.write rig.frontend ~lba:1 (data_of 'p' 1);
         late_ack := true));
  Sim.schedule_after rig.sim (Time.us 500) (fun () ->
      Rapilog.Trusted_logger.notify_power_fail rig.logger);
  Sim.run rig.sim;
  Alcotest.(check bool) "admission closed" false
    (Rapilog.Trusted_logger.accepting rig.logger);
  Alcotest.(check bool) "no ack after power-fail" false !late_ack;
  Alcotest.(check string) "pre-fail write still drained" (data_of 'p' 1)
    (Storage.Block.durable_read rig.device ~lba:0 ~sectors:1)

let logger_worst_case_flush_budget () =
  let rig = make_logger_rig () in
  ignore
    (Hypervisor.Domain.spawn rig.guest (fun () ->
         for i = 0 to 9 do
           Storage.Block.write rig.frontend ~lba:(i * 2) (data_of 'w' 2)
         done));
  Sim.run rig.sim;
  let high_water = Rapilog.Trusted_logger.max_buffered_bytes rig.logger in
  Alcotest.(check bool) "high-water positive" true (high_water > 0);
  let flush = Rapilog.Trusted_logger.worst_case_flush rig.logger ~drain_bandwidth:50e6 in
  check_near "budget math"
    (float_of_int high_water /. 50e6)
    (Time.span_to_float_sec flush)

let logger_rejects_untrusted_domain () =
  let sim = Sim.create () in
  let device = Storage.Ssd.create sim Storage.Ssd.default in
  let guest = Hypervisor.Domain.create sim ~name:"g" ~kind:Hypervisor.Domain.Guest in
  match
    Rapilog.Trusted_logger.create sim ~domain:guest
      Rapilog.Trusted_logger.default_config ~device
  with
  | exception Assert_failure _ -> ()
  | _ -> Alcotest.fail "a guest domain must be refused"

(* -- Durability checker ----------------------------------------------------- *)

let durability_all_recovered () =
  let report =
    Rapilog.Durability.compare_txids ~committed:[ 1; 2; 3 ] ~recovered:[ 1; 2; 3 ]
  in
  Alcotest.(check bool) "holds" true (Rapilog.Durability.holds report);
  Alcotest.(check int) "committed" 3 report.Rapilog.Durability.committed;
  Alcotest.(check int) "recovered" 3 report.Rapilog.Durability.recovered

let durability_loss_detected () =
  let report =
    Rapilog.Durability.compare_txids ~committed:[ 1; 2; 3 ] ~recovered:[ 1; 3 ]
  in
  Alcotest.(check bool) "violated" false (Rapilog.Durability.holds report);
  Alcotest.(check (list int)) "lost txn identified" [ 2 ] report.Rapilog.Durability.lost

let durability_extra_allowed () =
  let report =
    Rapilog.Durability.compare_txids ~committed:[ 1 ] ~recovered:[ 1; 2 ]
  in
  Alcotest.(check bool) "still holds" true (Rapilog.Durability.holds report);
  Alcotest.(check (list int)) "extra noted" [ 2 ] report.Rapilog.Durability.extra

let durability_diff_stores () =
  let expected = Hashtbl.create 8 and actual = Hashtbl.create 8 in
  Hashtbl.replace expected 1 "same";
  Hashtbl.replace actual 1 "same";
  Hashtbl.replace expected 2 "want";
  Hashtbl.replace actual 2 "got";
  Hashtbl.replace expected 3 "missing";
  Hashtbl.replace actual 4 "unexpected";
  let diffs = Rapilog.Durability.diff_stores ~expected ~actual in
  Alcotest.(check int) "three diffs" 3 (List.length diffs);
  Alcotest.(check (list int)) "sorted keys" [ 2; 3; 4 ]
    (List.map (fun d -> d.Rapilog.Durability.key) diffs)

let durability_identical_stores () =
  let expected = Hashtbl.create 8 and actual = Hashtbl.create 8 in
  Hashtbl.replace expected 1 "v";
  Hashtbl.replace actual 1 "v";
  Alcotest.(check int) "no diffs" 0
    (List.length (Rapilog.Durability.diff_stores ~expected ~actual))

(* -- attach facade ------------------------------------------------------------ *)

let attach_end_to_end () =
  let sim = Sim.create () in
  let vmm = Hypervisor.Vmm.create sim Hypervisor.Vmm.default_sel4 in
  let device = Storage.Hdd.create sim Storage.Hdd.default_7200rpm in
  let frontend, logger = Rapilog.attach ~vmm ~device () in
  ignore
    (Hypervisor.Vmm.spawn_guest vmm (fun () ->
         Storage.Block.write frontend ~lba:0 (data_of 'e' 4)));
  Sim.run sim;
  Alcotest.(check int) "one write acked" 1 (Rapilog.Trusted_logger.acked_writes logger);
  Alcotest.(check string) "durable via drain" (data_of 'e' 4)
    (Storage.Block.durable_read device ~lba:0 ~sectors:4)

let attach_with_power_hooks () =
  let sim = Sim.create () in
  let vmm = Hypervisor.Vmm.create sim Hypervisor.Vmm.default_sel4 in
  let power = Power.Power_domain.create sim (Power.Psu.of_window (Time.ms 100)) in
  let device = Storage.Hdd.create sim Storage.Hdd.default_7200rpm in
  let _frontend, logger = Rapilog.attach ~vmm ~power ~device () in
  Sim.schedule_after sim (Time.ms 1) (fun () -> Power.Power_domain.cut power);
  Sim.run sim;
  Alcotest.(check bool) "logger notified by the power domain" false
    (Rapilog.Trusted_logger.accepting logger)

let suites =
  [
    ( "rapilog.ring_buffer",
      [
        case "FIFO order" ring_fifo;
        case "capacity and reclamation" ring_capacity;
        case "byte accounting" ring_accounting;
        case "coalesces adjacent writes" ring_coalesce_adjacent;
        case "overlap: later write wins" ring_coalesce_overlap_later_wins;
        case "respects max batch size" ring_coalesce_respects_max_bytes;
        case "stops at address gaps" ring_coalesce_stops_at_gap;
        case "pop allocation flat in queue length" ring_pop_allocation_flat;
        ring_coalesce_equivalence_prop;
      ] );
    ( "rapilog.trusted_logger",
      [
        case "ack precedes media write" logger_ack_precedes_media;
        case "quiesce drains everything" logger_quiesce_drains_everything;
        case "drain coalesces physical writes" logger_coalesces_drain_writes;
        case "tiny buffer: backpressure, not loss" logger_backpressure_on_tiny_buffer;
        case "buffered data survives guest crash" logger_survives_guest_crash;
        case "power-fail notification closes admission"
          logger_power_fail_stops_admission;
        case "worst-case flush budget" logger_worst_case_flush_budget;
        case "refuses an untrusted domain" logger_rejects_untrusted_domain;
      ] );
    ( "rapilog.durability",
      [
        case "all recovered" durability_all_recovered;
        case "loss detected" durability_loss_detected;
        case "unacknowledged durable commits allowed" durability_extra_allowed;
        case "store diffs" durability_diff_stores;
        case "identical stores" durability_identical_stores;
      ] );
    ( "rapilog.attach",
      [
        case "end to end through the VMM" attach_end_to_end;
        case "power domain hooks" attach_with_power_hooks;
      ] );
  ]

(* -- Live drain vs the shared ring policy ------------------------------------- *)

(* The batches the live logger writes after [notify_power_fail] must be
   exactly what [Ring_state.power_fail] then [Ring_state.drain] yield on
   a copy of its ring taken at the cut — the equality the journal crash
   sweep relies on when it drains a replica instead of running the
   logger. Writes interleave two stream regions, some rewrite their
   stream's tail sector, and the cut lands at a random step, so it finds
   the ring in every state: empty, mid-batch, full with writers parked
   on backpressure. *)
let live_drain_equals_shared_prop =
  let gen =
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 30)
           (triple (int_range 0 1) (int_range 1 3) bool))
        (int_range 0 30))
  in
  prop "post-cut live drain equals Ring_state.drain on the cut copy" ~count:150
    gen (fun (writes, cut_step) ->
      let sim = Sim.create ~seed:3L () in
      let inner = Storage.Hdd.create sim Storage.Hdd.default_7200rpm in
      let cut = ref false in
      let post_cut = ref [] in
      let device =
        Storage.Block.make ~info:(Storage.Block.info inner)
          ~stats:(Storage.Block.stats inner)
          ~ops:
            {
              Storage.Block.op_read =
                (fun ~lba ~sectors -> Storage.Block.read inner ~lba ~sectors);
              op_write =
                (fun ~lba ~data ~fua ->
                  if !cut then post_cut := (lba, data) :: !post_cut;
                  Storage.Block.write inner ~fua ~lba data);
              op_flush = (fun () -> Storage.Block.flush inner);
              op_power_cut = (fun () -> Storage.Block.power_cut inner);
              op_durable_read_into = Storage.Block.durable_read_into inner;
              op_durable_extent = (fun () -> Storage.Block.durable_extent inner);
            }
          ()
      in
      let trusted =
        Hypervisor.Domain.create sim ~name:"rapilog" ~kind:Hypervisor.Domain.Trusted
      in
      let logger =
        Rapilog.Trusted_logger.create sim ~domain:trusted
          {
            Rapilog.Trusted_logger.buffer_bytes = 8 * sector;
            copy_bandwidth = 1e8;
            drain_max_bytes = 3 * sector;
          }
          ~device
      in
      let backend = Rapilog.Trusted_logger.backend logger in
      let guest = Hypervisor.Domain.create sim ~name:"g" ~kind:Hypervisor.Domain.Guest in
      let spacing = Time.us 150 in
      let next = [| 0; 1000 |] in
      List.iteri
        (fun i (stream, sectors, rewrite_tail) ->
          let lba =
            if rewrite_tail && next.(stream) > stream * 1000 then next.(stream) - 1
            else next.(stream)
          in
          next.(stream) <- lba + sectors;
          let data = data_of (Char.chr (65 + (i mod 26))) sectors in
          Sim.schedule_at sim (Time.add Time.zero (Time.mul_span spacing i)) (fun () ->
              ignore
                (Hypervisor.Domain.spawn guest (fun () ->
                     backend.Hypervisor.Virtio_blk.be_write ~lba ~data ~fua:false))))
        writes;
      let snapshot = ref None in
      Sim.schedule_at sim
        (Time.add (Time.add Time.zero (Time.mul_span spacing cut_step)) (Time.us 70))
        (fun () ->
          snapshot := Some (Rapilog.Trusted_logger.ring_snapshot logger);
          Rapilog.Trusted_logger.notify_power_fail logger;
          cut := true);
      Sim.run sim;
      (* The crash sweep's sequence: copy, power_fail, drain. *)
      let shared = ref [] in
      (match !snapshot with
      | Some ring ->
          Rapilog.Trusted_logger.Ring_state.power_fail ring;
          Rapilog.Trusted_logger.Ring_state.drain ring ~write:(fun ~stamp:_ ~lba ~data ->
              shared := (lba, data) :: !shared;
              true)
      | None -> ());
      !post_cut = !shared)

(* -- Tracing (appended) ------------------------------------------------------ *)

let logger_emits_trace_events () =
  let sim = Sim.create () in
  let trace = Trace.collector () in
  let device = Storage.Hdd.create sim Storage.Hdd.default_7200rpm in
  let trusted = Hypervisor.Domain.create sim ~name:"rl" ~kind:Hypervisor.Domain.Trusted in
  let logger =
    Rapilog.Trusted_logger.create sim ~domain:trusted ~trace
      Rapilog.Trusted_logger.default_config ~device
  in
  let backend_domain =
    Hypervisor.Domain.create sim ~name:"drv" ~kind:Hypervisor.Domain.Trusted
  in
  let frontend =
    Hypervisor.Virtio_blk.create sim ~ipc:Hypervisor.Ipc.free ~backend_domain
      (Rapilog.Trusted_logger.backend logger)
  in
  let guest = Hypervisor.Domain.create sim ~name:"g" ~kind:Hypervisor.Domain.Guest in
  ignore
    (Hypervisor.Domain.spawn guest (fun () ->
         Storage.Block.write frontend ~lba:0 (data_of 't' 2)));
  Sim.schedule_after sim (Time.ms 50) (fun () ->
      Rapilog.Trusted_logger.notify_power_fail logger);
  Sim.run sim;
  let tags = List.map (fun r -> r.Trace.tag) (Trace.records trace) in
  Alcotest.(check bool) "drain traced" true (List.mem "drain" tags);
  Alcotest.(check bool) "power-fail traced" true (List.mem "power-fail" tags)

let logger_traces_backpressure () =
  let sim = Sim.create () in
  let trace = Trace.collector () in
  let device = Storage.Hdd.create sim Storage.Hdd.default_7200rpm in
  let trusted = Hypervisor.Domain.create sim ~name:"rl" ~kind:Hypervisor.Domain.Trusted in
  let logger =
    Rapilog.Trusted_logger.create sim ~domain:trusted ~trace
      {
        Rapilog.Trusted_logger.default_config with
        Rapilog.Trusted_logger.buffer_bytes = 2 * sector;
      }
      ~device
  in
  let backend = Rapilog.Trusted_logger.backend logger in
  let guest = Hypervisor.Domain.create sim ~name:"g" ~kind:Hypervisor.Domain.Guest in
  ignore
    (Hypervisor.Domain.spawn guest (fun () ->
         for i = 0 to 15 do
           backend.Hypervisor.Virtio_blk.be_write ~lba:i ~data:(data_of 'x' 1)
             ~fua:false
         done));
  Sim.run sim;
  Alcotest.(check bool) "backpressure traced" true
    (List.exists
       (fun r -> String.equal r.Trace.tag "backpressure")
       (Trace.records trace))

let trace_suite =
  ( "rapilog.trace",
    [
      case "drain and power-fail events" logger_emits_trace_events;
      case "backpressure events" logger_traces_backpressure;
    ] )

let suites =
  suites
  @ [
      ("rapilog.ring_state", [ live_drain_equals_shared_prop ]);
      trace_suite;
    ]

(* -- Power fail under backpressure (appended) ---------------------------------- *)

let power_fail_while_stalled () =
  (* A writer blocked on a full buffer when the power fails must never
     be acknowledged, and everything already accepted must drain. *)
  let config =
    {
      Rapilog.Trusted_logger.default_config with
      Rapilog.Trusted_logger.buffer_bytes = 2 * sector;
    }
  in
  let rig = make_logger_rig ~config () in
  let acked = ref 0 in
  ignore
    (Hypervisor.Domain.spawn rig.guest (fun () ->
         for i = 0 to 63 do
           Storage.Block.write rig.frontend ~lba:i (data_of 'z' 1);
           incr acked
         done));
  (* Fail while the tiny buffer has the writer stalled. *)
  Sim.schedule_after rig.sim (Time.ms 2) (fun () ->
      Rapilog.Trusted_logger.notify_power_fail rig.logger);
  Sim.run rig.sim;
  Alcotest.(check bool) "not everything was acknowledged" true (!acked < 64);
  (* Every acknowledged sector is durable. *)
  let durable = Storage.Block.durable_read rig.device ~lba:0 ~sectors:(max 1 !acked) in
  for i = 0 to !acked - 1 do
    if String.sub durable (i * sector) sector <> data_of 'z' 1 then
      Alcotest.failf "acked sector %d not durable" i
  done

let fua_treated_as_normal_write () =
  let rig = make_logger_rig () in
  ignore
    (Hypervisor.Domain.spawn rig.guest (fun () ->
         Storage.Block.write rig.frontend ~fua:true ~lba:0 (data_of 'f' 1)));
  Sim.run rig.sim;
  Alcotest.(check int) "accepted" 1 (Rapilog.Trusted_logger.acked_writes rig.logger);
  Alcotest.(check string) "drained" (data_of 'f' 1)
    (Storage.Block.durable_read rig.device ~lba:0 ~sectors:1)

let stall_suite =
  ( "rapilog.power_fail_edge",
    [
      case "power fail while stalled on a full buffer" power_fail_while_stalled;
      case "FUA goes through the normal contract" fua_treated_as_normal_write;
    ] )

let suites = suites @ [ stall_suite ]

(* -- Invariant monitor (appended) ---------------------------------------------- *)

let monitor_clean_run () =
  let rig = make_logger_rig () in
  let monitor = Rapilog.Invariants.attach rig.sim rig.logger in
  ignore
    (Hypervisor.Domain.spawn rig.guest (fun () ->
         for i = 0 to 31 do
           Storage.Block.write rig.frontend ~lba:i (data_of 'm' 2)
         done));
  Sim.run ~until:(Time.add Time.zero (Time.ms 100)) rig.sim;
  Alcotest.(check bool) "no violations in a healthy run" true
    (Rapilog.Invariants.ok monitor);
  Alcotest.(check bool) "monitor actually ran" true
    (Rapilog.Invariants.checks_performed monitor > 50)

let monitor_covers_power_fail () =
  let rig = make_logger_rig () in
  let monitor = Rapilog.Invariants.attach rig.sim rig.logger in
  ignore
    (Hypervisor.Domain.spawn rig.guest (fun () ->
         for i = 0 to 15 do
           Storage.Block.write rig.frontend ~lba:i (data_of 'p' 1)
         done));
  Sim.schedule_after rig.sim (Time.ms 2) (fun () ->
      Rapilog.Trusted_logger.notify_power_fail rig.logger);
  Sim.run ~until:(Time.add Time.zero (Time.ms 100)) rig.sim;
  Alcotest.(check bool) "admission-closed holds through a power fail" true
    (Rapilog.Invariants.ok monitor)

let monitor_under_durability_experiment () =
  (* Attach the monitor to a full harness run: the whole power-cut
     sequence must keep every invariant. *)
  let config =
    {
      Harness.Scenario.default with
      Harness.Scenario.clients = 4;
      duration = Time.ms 500;
    }
  in
  let built = Harness.Scenario.build config in
  let logger = Option.get built.Harness.Scenario.logger in
  let monitor = Rapilog.Invariants.attach built.Harness.Scenario.sim logger in
  let r =
    (* Run the failure path by hand: reuse the public experiment API on a
       second, independent machine is not possible (the monitor needs
       this sim), so exercise load + cut directly. *)
    let sim = built.Harness.Scenario.sim in
    ignore
      (Hypervisor.Vmm.spawn_guest built.Harness.Scenario.vmm (fun () ->
           for i = 1 to 200 do
             ignore
               (Dbms.Engine.exec built.Harness.Scenario.engine
                  [ Dbms.Engine.Put { key = i; value = "inv" } ])
           done));
    Power.Power_domain.cut_at built.Harness.Scenario.power
      (Time.add Time.zero (Time.ms 100));
    Sim.run ~until:(Time.add Time.zero (Time.sec 1)) sim;
    monitor
  in
  Alcotest.(check bool) "invariants hold through a power cut" true
    (Rapilog.Invariants.ok r);
  Alcotest.(check (list reject)) "no violations recorded" []
    (List.map ignore (Rapilog.Invariants.violations r))

let monitor_suite =
  ( "rapilog.invariants",
    [
      case "clean run has no violations" monitor_clean_run;
      case "power-fail path holds" monitor_covers_power_fail;
      case "full power-cut experiment holds" monitor_under_durability_experiment;
    ] )

let suites = suites @ [ monitor_suite ]
