(* Tests for the quorum-replicated trusted logger (RapiLog-Q): the
   merge of per-replica durable prefixes, the message-level election
   protocol's safety under its tolerated fault envelope, and the
   simulated runtime's handoff — counters, watermark/term monotonicity
   across successive elections, and recovery coverage of every
   quorum-acked commit. *)

open Desim
open Testu
module P = Net.Quorum.Protocol

(* -- merge_prefix --------------------------------------------------------- *)

(* A deterministic global stream: entry [seq] always carries the same
   (lba, data), as FIFO links guarantee in the real system. *)
let data_of seq = Printf.sprintf "entry-%06d" seq
let entry_of seq = (seq, seq * 2, data_of seq)

(* Longest consecutive prefix 1..m a node's stream covers. *)
let prefix_of entries =
  let next = ref 1 in
  List.iter (fun (seq, _, _) -> if seq = !next then incr next) entries;
  !next - 1

(* Per node: a consecutive prefix plus (optionally) a few entries beyond
   a gap — the shape a reordering-free link can never produce, which the
   merge must ignore rather than resurrect. *)
let gen_node_lists =
  let open QCheck2.Gen in
  list_size (int_range 1 6)
    (let* prefix = int_range 0 15 in
     let* gap_extras = int_range 0 3 in
     return
       (List.init prefix (fun i -> entry_of (i + 1))
       @ List.init gap_extras (fun i -> entry_of (prefix + 2 + i))))

(* Coverage: the merge is exactly the seqs 1..max-prefix in order, with
   the stream's own payloads — so for every quorum size k, the k-th
   largest per-node prefix (an upper bound on any quorum-acked
   watermark) is fully covered. *)
let merge_covers_law lists =
  let merged = Net.Quorum.merge_prefix lists in
  let prefixes = List.sort (fun a b -> compare b a) (List.map prefix_of lists) in
  let maxp = match prefixes with [] -> 0 | p :: _ -> p in
  let seqs = List.map (fun (seq, _, _) -> seq) merged in
  seqs = List.init maxp (fun i -> i + 1)
  && List.for_all
       (fun (seq, lba, data) -> lba = seq * 2 && data = data_of seq)
       merged
  && List.for_all (fun acked -> acked <= List.length merged) prefixes

(* Idempotence: merging the merge changes nothing, alone or alongside
   the original node lists. *)
let merge_idempotent_law lists =
  let merged = Net.Quorum.merge_prefix lists in
  Net.Quorum.merge_prefix [ merged ] = merged
  && Net.Quorum.merge_prefix (merged :: lists) = merged

let shuffle key lists =
  List.mapi (fun i l -> (((i + 1) * 1103515245) + key, l)) lists
  |> List.sort compare |> List.map snd

(* Order-insensitivity over replica permutations. *)
let merge_permutation_law (lists, key) =
  let merged = Net.Quorum.merge_prefix lists in
  Net.Quorum.merge_prefix (List.rev lists) = merged
  && Net.Quorum.merge_prefix (shuffle key lists) = merged

(* -- protocol state machine ----------------------------------------------- *)

(* Random schedules over the protocol alphabet, capped at the tolerated
   fault envelope for (n = 3, k = 2): the primary plus at most k - 1 = 1
   replica may die. Safety must hold at every step — the committed
   watermark is monotone and [check] stays empty. *)
type pop =
  | P_append
  | P_deliver of int
  | P_collect of int
  | P_lose_primary
  | P_lose of int
  | P_campaign of int

let gen_pop =
  let open QCheck2.Gen in
  let* kind = int_range 0 5 in
  let* r = int_range 0 2 in
  return
    (match kind with
    | 0 -> P_append
    | 1 -> P_deliver r
    | 2 -> P_collect r
    | 3 -> P_lose_primary
    | 4 -> P_lose r
    | _ -> P_campaign r)

let protocol_random_law ops =
  let t = P.create ~replicas:3 ~quorum:2 in
  let rlosses = ref 0 in
  let prev_commit = ref 0 in
  let ok = ref true in
  List.iter
    (fun op ->
      (match op with
      | P_append -> if P.can_append t then ignore (P.append t)
      | P_deliver r -> if P.can_deliver t r then P.deliver t r
      | P_collect r -> if P.can_collect t r then P.collect t r
      | P_lose_primary -> if P.can_lose_primary t then P.lose_primary t
      | P_lose r ->
          if !rlosses < 1 && P.can_lose t r then begin
            incr rlosses;
            P.lose t r
          end
      | P_campaign r -> if P.can_campaign t r then P.campaign t r);
      if P.commit_watermark t < !prev_commit then ok := false;
      prev_commit := P.commit_watermark t;
      if P.check t <> [] then ok := false)
    ops;
  !ok

(* The vote rule's refusal: a candidate whose watermark misses a
   committed entry is refused by every replica holding it — at least k
   of them — so it can never reach the n - k + 1 adoption quorum. *)
let behind_candidate_refused () =
  let t = P.create ~replicas:3 ~quorum:2 in
  P.seed t ~primary_len:3 ~prefixes:[| 3; 3; 1 |] ~committed:3 ~term:1;
  P.lose_primary t;
  P.campaign t 2;
  for r = 0 to 2 do
    while P.can_deliver t r do
      P.deliver t r
    done
  done;
  for r = 0 to 2 do
    while P.can_collect t r do
      P.collect t r
    done
  done;
  Alcotest.(check bool) "behind candidate stalls" true (P.lead t = P.Candidate 2);
  Alcotest.(check int) "only its own adoption" 1 (P.adopts t);
  Alcotest.(check (list string)) "committed prefix intact" [] (P.check t)

(* The best candidate wins, and its full-log catch-up re-establishes
   prefix matching on the lagging replica. *)
let best_candidate_catches_up () =
  let t = P.create ~replicas:3 ~quorum:2 in
  P.seed t ~primary_len:3 ~prefixes:[| 3; 3; 1 |] ~committed:3 ~term:1;
  P.lose_primary t;
  (match P.best_candidate t with
  | Some c -> Alcotest.(check int) "best candidate holds the watermark" 0 c
  | None -> Alcotest.fail "no candidate");
  P.campaign t 0;
  for r = 0 to 2 do
    while P.can_deliver t r do
      P.deliver t r
    done
  done;
  for r = 0 to 2 do
    while P.can_collect t r do
      P.collect t r
    done
  done;
  Alcotest.(check bool) "elected" true (P.lead t = P.Replica_leader 0);
  (* Catch-up appends land on the fresh channels; drain them. *)
  for r = 0 to 2 do
    while P.can_deliver t r do
      P.deliver t r
    done
  done;
  Alcotest.(check int) "lagging replica caught up" 3
    (List.length (P.node_log t 2));
  Alcotest.(check (list string)) "committed prefix intact" [] (P.check t)

(* A quorum of one has no intersection to lean on: one acked copy plus
   the primary is the whole durability domain, and losing both loses the
   commit. Same fault envelope the k = 2 cell survives. *)
let quorum_one_loses () =
  let t = P.create ~replicas:3 ~quorum:1 in
  ignore (P.append t);
  P.deliver t 0;
  P.collect t 0;
  Alcotest.(check int) "committed on the single ack" 1 (P.commit_watermark t);
  P.lose_primary t;
  P.lose t 0;
  Alcotest.(check bool) "committed entry lost" true (P.check t <> [])

(* -- the simulated runtime ------------------------------------------------- *)

(* Hand-wired quorum cluster: logger, per-node link pairs and replicas,
   no scenario machinery. [setup] runs on the cluster before the guest
   writes. *)
let quorum_rig ?(config = Net.Quorum.default) ?(writes = 24) ?(seed = 5L)
    ?(setup = ignore) () =
  let sim = Sim.create ~seed () in
  let device = Storage.Hdd.create sim Storage.Hdd.default_7200rpm in
  let trusted =
    Hypervisor.Domain.create sim ~name:"rapilog" ~kind:Hypervisor.Domain.Trusted
  in
  let logger =
    Rapilog.Trusted_logger.create sim ~domain:trusted
      Rapilog.Trusted_logger.default_config ~device
  in
  let backend_domain =
    Hypervisor.Domain.create sim ~name:"drv" ~kind:Hypervisor.Domain.Trusted
  in
  let frontend =
    Hypervisor.Virtio_blk.create sim ~ipc:Hypervisor.Ipc.default_sel4
      ~backend_domain
      (Rapilog.Trusted_logger.backend logger)
  in
  let q =
    Net.Quorum.attach sim config ~logger
      ~make_device:(fun _ -> Storage.Hdd.create sim Storage.Hdd.default_7200rpm)
  in
  setup q;
  let guest =
    Hypervisor.Domain.create sim ~name:"guest" ~kind:Hypervisor.Domain.Guest
  in
  ignore
    (Hypervisor.Domain.spawn guest (fun () ->
         for i = 1 to writes do
           Storage.Block.write frontend ~lba:(i * 2)
             (String.make 512 (Char.chr (64 + (i mod 26))))
         done;
         Rapilog.Trusted_logger.quiesce logger;
         for i = 0 to config.Net.Quorum.replicas - 1 do
           Net.Replica.quiesce (Net.Quorum.node_replica q i)
         done));
  Sim.run sim;
  (device, logger, q)

let quorum_counters () =
  let writes = 24 in
  let _device, logger, q = quorum_rig ~writes () in
  Alcotest.(check int) "every admission sent" writes (Net.Quorum.sent q);
  Alcotest.(check int) "acks from every replica" (writes * 3) (Net.Quorum.acks q);
  Alcotest.(check int) "every seq quorum-committed" writes (Net.Quorum.commit_seq q);
  Alcotest.(check int) "nothing left on the wire" 0 (Net.Quorum.wire_in_flight q);
  Alcotest.(check int) "logger acked every write" writes
    (Rapilog.Trusted_logger.acked_writes logger);
  for i = 0 to 2 do
    Alcotest.(check int)
      (Printf.sprintf "replica %d holds the full prefix" i)
      writes
      (Net.Replica.prefix (Net.Quorum.node_replica q i))
  done

(* Counter and watermark consistency over the (replicas, quorum) grid,
   k = 0 included: acks still flow back, they just park nobody. *)
let rig_grid_law (replicas, quorum_raw, seed) =
  let quorum = quorum_raw mod (replicas + 1) in
  let writes = 8 in
  let config =
    { Net.Quorum.default with Net.Quorum.replicas; quorum }
  in
  let _device, _logger, q =
    quorum_rig ~config ~writes ~seed:(Int64.of_int seed) ()
  in
  Net.Quorum.sent q = writes
  && Net.Quorum.acks q = writes * replicas
  && Net.Quorum.commit_seq q = writes
  && Net.Quorum.wire_in_flight q = 0
  && List.for_all
       (fun i -> Net.Replica.prefix (Net.Quorum.node_replica q i) = writes)
       (Net.Quorum.live_nodes q)

(* Successive handoffs: terms strictly increase, the quorate election
   changes leader when the incumbent dies, and the live merge keeps
   covering every quorum-acked seq — the sever-during-election surface
   driven directly. *)
let handoff_monotone () =
  let writes = 24 in
  let _device, _logger, q = quorum_rig ~writes () in
  Net.Quorum.primary_lost q;
  let e1 = Net.Quorum.handoff q in
  Alcotest.(check bool) "first election quorate" true e1.Net.Quorum.el_quorum;
  Alcotest.(check bool) "a leader was chosen" true (e1.Net.Quorum.el_leader >= 0);
  Alcotest.(check bool) "term advanced past the primary's" true
    (e1.Net.Quorum.el_term > 1);
  Net.Quorum.node_lost q e1.Net.Quorum.el_leader;
  let e2 = Net.Quorum.handoff q in
  Alcotest.(check bool) "second election quorate" true e2.Net.Quorum.el_quorum;
  Alcotest.(check bool) "term strictly monotone across handoffs" true
    (e2.Net.Quorum.el_term > e1.Net.Quorum.el_term);
  Alcotest.(check bool) "dead incumbent not re-elected" true
    (e2.Net.Quorum.el_leader <> e1.Net.Quorum.el_leader
    && e2.Net.Quorum.el_leader >= 0);
  let merged =
    Net.Quorum.merge_prefix
      (List.map
         (fun i -> Net.Replica.entries (Net.Quorum.node_replica q i))
         (Net.Quorum.live_nodes q))
  in
  Alcotest.(check bool) "merge still covers every quorum-acked seq" true
    (List.length merged >= Net.Quorum.commit_seq q)

(* End-to-end recovery: primary plus k - 1 replicas die, the recovered
   log device still holds every acknowledged write's payload. *)
let recovery_covers_acked () =
  let writes = 24 in
  let device, _logger, q = quorum_rig ~writes () in
  Net.Quorum.primary_lost q;
  Net.Quorum.node_lost q 0;
  let recovered = Net.Quorum.recovery_log_device q ~primary:device in
  (match Net.Quorum.last_election q with
  | Some e -> Alcotest.(check bool) "recovery election quorate" true e.Net.Quorum.el_quorum
  | None -> Alcotest.fail "recovery ran no election");
  for i = 1 to writes do
    let expected = String.make 512 (Char.chr (64 + (i mod 26))) in
    Alcotest.(check string)
      (Printf.sprintf "write %d recovered" i)
      expected
      (Storage.Block.durable_read recovered ~lba:(i * 2) ~sectors:1)
  done

let suites =
  [
    ( "net.quorum.merge",
      [
        prop "merge covers every quorum watermark, in order" ~count:200
          gen_node_lists merge_covers_law;
        prop "merge is idempotent" ~count:200 gen_node_lists
          merge_idempotent_law;
        prop "merge is insensitive to replica order" ~count:200
          QCheck2.Gen.(pair gen_node_lists (int_range 0 1_000_000))
          merge_permutation_law;
      ] );
    ( "net.quorum.protocol",
      [
        prop "safety holds on random schedules within the fault envelope"
          ~count:300
          QCheck2.Gen.(list_size (int_range 1 40) gen_pop)
          protocol_random_law;
        case "behind candidate refused by committed-entry holders"
          behind_candidate_refused;
        case "best candidate wins and catches the laggard up"
          best_candidate_catches_up;
        case "quorum of one loses the committed entry" quorum_one_loses;
      ] );
    ( "net.quorum.runtime",
      [
        case "datapath counters line up" quorum_counters;
        prop "counters consistent over the (replicas, quorum) grid" ~count:25
          QCheck2.Gen.(
            triple (int_range 1 4) (int_range 0 16) (int_range 1 1_000_000))
          rig_grid_law;
        case "handoff terms monotone, incumbent death re-elects"
          handoff_monotone;
        case "recovery covers every acked write after pair loss"
          recovery_covers_acked;
      ] );
  ]
