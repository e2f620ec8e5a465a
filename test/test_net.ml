(* Tests for the simulated network layer and the replicated trusted
   logger (RapiLog-R, the one-replica quorum cluster): per-link FIFO
   delivery, fault-model bookkeeping, seed-determinism of the delivery
   schedule, and the machine-loss durability asymmetry between local and
   replicated RapiLog. *)

open Desim
open Testu

(* -- link harness -------------------------------------------------------- *)

(* Drive one link from a sender process: [sends] is a list of
   (gap_us, bytes) pairs; message [i] is payload [i]. Returns the link
   and the delivery trace as [(payload, delivered_at_ns)] in order. *)
let run_link ?(seed = 7L) ?(setup = fun _ _ -> ()) config sends =
  let sim = Sim.create ~seed () in
  let trace = ref [] in
  let link =
    Net.Link.create sim config ~dummy:(-1) ~deliver:(fun payload ->
        trace := (payload, Time.to_ns (Sim.now sim)) :: !trace)
  in
  setup sim link;
  ignore
    (Process.spawn sim ~name:"sender" (fun () ->
         List.iteri
           (fun i (gap_us, bytes) ->
             if gap_us > 0 then Process.sleep (Time.us gap_us);
             Net.Link.send link ~bytes i)
           sends));
  Sim.run sim;
  (link, List.rev !trace)

let gen_latency =
  let open QCheck2.Gen in
  let* kind = int_range 0 2 in
  let* a = int_range 0 200 in
  let* b = int_range 0 200 in
  return
    (match kind with
    | 0 -> Net.Link.Constant (Time.us a)
    | 1 -> Net.Link.Uniform (Time.us (min a b), Time.us (max a b))
    | _ -> Net.Link.Exponential (Time.us (a + 1)))

let gen_config =
  let open QCheck2.Gen in
  let* latency = gen_latency in
  let* bandwidth = oneofl [ 0.; 1e8; 1.25e9 ] in
  let* drop_probability = oneofl [ 0.; 0.1; 0.4 ] in
  return { Net.Link.latency; bandwidth; drop_probability }

let gen_sends =
  let open QCheck2.Gen in
  list_size (int_range 1 40) (pair (int_range 0 50) (int_range 0 4096))

let gen_seed = QCheck2.Gen.(map Int64.of_int (int_range 1 1_000_000))

(* Per-link FIFO: whatever the latency draws and drops, delivered
   payloads are a strictly increasing subsequence of the send order and
   delivery times never go backwards. *)
let fifo_law (config, sends, seed) =
  let link, trace = run_link ~seed config sends in
  let rec check_mono last_id last_ns = function
    | [] -> true
    | (id, ns) :: rest ->
        id > last_id && ns >= last_ns && check_mono id ns rest
  in
  check_mono (-1) (-1) trace
  && Net.Link.sent link = List.length sends
  && Net.Link.delivered link = List.length trace
  && Net.Link.delivered link + Net.Link.dropped link = Net.Link.sent link
  && Net.Link.in_flight link = 0

(* Seed-determinism: the delivery schedule (payloads and timestamps) is
   a pure function of (seed, config, send sequence). *)
let determinism_law (config, sends, seed) =
  let _, t1 = run_link ~seed config sends in
  let _, t2 = run_link ~seed config sends in
  t1 = t2

(* Partition before any send, heal at a fixed later instant: exactly the
   non-dropped backlog arrives, all of it at or after the heal, FIFO. *)
let partition_heal_law (config, sends, seed) =
  let heal_at = Time.of_ns 500_000_000 (* beyond any send + latency *) in
  let link, trace =
    run_link ~seed config sends ~setup:(fun sim link ->
        Net.Link.partition link;
        Sim.schedule_at sim heal_at (fun () -> Net.Link.heal link))
  in
  let heal_ns = Time.to_ns heal_at in
  List.for_all (fun (_, ns) -> ns >= heal_ns) trace
  && Net.Link.delivered link = List.length sends - Net.Link.dropped link
  && trace = List.sort compare trace (* FIFO: ids increasing *)

let sever_discards () =
  let link, trace =
    run_link { Net.Link.default with drop_probability = 0. }
      [ (0, 512); (1, 512); (2, 512) ]
      ~setup:(fun sim link ->
        Net.Link.partition link;
        (* All three messages are queued behind the partition when the
           peer dies; everything must be discarded, nothing delivered. *)
        Sim.schedule_at sim (Time.of_ns 400_000_000) (fun () ->
            Net.Link.sever link))
  in
  Alcotest.(check (list (pair int int))) "nothing delivered" [] trace;
  Alcotest.(check int) "backlog counted as dropped" 3 (Net.Link.dropped link);
  Net.Link.send link 99;
  Alcotest.(check int) "post-sever send not accepted" 3 (Net.Link.sent link);
  Alcotest.(check int) "post-sever send counted dropped" 4 (Net.Link.dropped link)

(* Loss wins over partition: severing a partitioned link drops the
   partition state with the backlog, and a late heal is a no-op — it
   must not resurrect traffic to a dead peer. *)
let sever_clears_partition () =
  let link, trace =
    run_link { Net.Link.default with drop_probability = 0. }
      [ (0, 512); (1, 512) ]
      ~setup:(fun sim link ->
        Net.Link.partition link;
        Sim.schedule_at sim (Time.of_ns 400_000_000) (fun () ->
            Net.Link.sever link;
            Alcotest.(check bool) "partition state dropped at sever" false
              (Net.Link.partitioned link)))
  in
  Alcotest.(check (list (pair int int))) "nothing delivered" [] trace;
  Net.Link.heal link;
  Alcotest.(check bool) "late heal leaves the link unpartitioned" false
    (Net.Link.partitioned link);
  Alcotest.(check int) "late heal flushes nothing" 0 (Net.Link.delivered link)

let constant_latency_exact () =
  let config =
    {
      Net.Link.latency = Net.Link.Constant (Time.us 40);
      bandwidth = 0.;
      drop_probability = 0.;
    }
  in
  let _, trace = run_link config [ (0, 0) ] in
  match trace with
  | [ (0, ns) ] -> Alcotest.(check int) "delivered at latency" 40_000 ns
  | _ -> Alcotest.fail "expected exactly one delivery"

let bandwidth_serialises () =
  (* Two back-to-back 1 MB messages on a 1 GB/s link, zero propagation
     delay: the second is serialised behind the first, so deliveries are
     1 ms apart. *)
  let config =
    {
      Net.Link.latency = Net.Link.Constant Time.zero_span;
      bandwidth = 1e9;
      drop_probability = 0.;
    }
  in
  let _, trace = run_link config [ (0, 1_000_000); (0, 1_000_000) ] in
  match trace with
  | [ (0, a); (1, b) ] ->
      Alcotest.(check int) "first after its own serialisation" 1_000_000 a;
      Alcotest.(check int) "second a full serialisation later" 2_000_000 b
  | _ -> Alcotest.fail "expected exactly two deliveries"

(* -- fault scheduling ----------------------------------------------------- *)

let outage_in_bounds () =
  let sim = Sim.create ~seed:11L () in
  let cut = ref None and healed = ref None in
  let earliest = Time.of_ns 1_000_000 and latest = Time.of_ns 5_000_000 in
  let cut_at, heal_at =
    Net.Fault.outage_between sim ~earliest ~latest ~min_outage:(Time.us 10)
      ~max_outage:(Time.us 500)
      ~partition:(fun () -> cut := Some (Sim.now sim))
      ~heal:(fun () -> healed := Some (Sim.now sim))
  in
  Sim.run sim;
  Alcotest.(check bool) "cut fired at its instant" true (!cut = Some cut_at);
  Alcotest.(check bool) "heal fired at its instant" true (!healed = Some heal_at);
  Alcotest.(check bool) "cut within [earliest, latest)" true
    (Time.compare cut_at earliest >= 0 && Time.compare cut_at latest < 0);
  let outage = Time.diff heal_at cut_at in
  Alcotest.(check bool) "outage within [min, max)" true
    (Time.compare_span outage (Time.us 10) >= 0
    && Time.compare_span outage (Time.us 500) < 0)

let outage_degenerate_and_reversed () =
  let sim = Sim.create ~seed:3L () in
  let at = Time.of_ns 2_000_000 in
  let cut_at, heal_at =
    Net.Fault.outage_between sim ~earliest:at ~latest:at ~min_outage:(Time.us 7)
      ~max_outage:(Time.us 7)
      ~partition:(fun () -> ())
      ~heal:(fun () -> ())
  in
  Alcotest.(check int) "degenerate instant" (Time.to_ns at) (Time.to_ns cut_at);
  check_span "degenerate outage" (Time.us 7) (Time.diff heal_at cut_at);
  Alcotest.check_raises "reversed bounds"
    (Invalid_argument "Net.Fault: latest is before earliest") (fun () ->
      ignore
        (Net.Fault.outage_between sim
           ~earliest:(Time.of_ns 9_000_000)
           ~latest:at ~min_outage:Time.zero_span ~max_outage:Time.zero_span
           ~partition:ignore ~heal:ignore));
  Sim.run sim

(* -- replication: RapiLog-R as the one-replica quorum cluster ------------- *)

let one_replica quorum = { Net.Quorum.default with Net.Quorum.replicas = 1; quorum }

(* The rapilog-replicated preset's shape — one replica, commit on [quorum]
   acks (1 = replica-ack, 0 = async) — over a small update workload. *)
let replicated_scenario ?(quorum = 1) () =
  {
    Harness.Scenario.default with
    Harness.Scenario.mode = Harness.Scenario.Rapilog_quorum;
    workload =
      Harness.Scenario.Micro
        {
          Workload.Microbench.default_config with
          Workload.Microbench.keys = 64;
          value_bytes = 32;
        };
    clients = 2;
    seed = 99L;
    warmup = Time.ms 50;
    duration = Time.ms 400;
    quorum = one_replica quorum;
  }

(* The datapath is driven directly — logger, links and replica wired by
   hand, no background scenario machinery — by the quorum tests' rig. *)
let replication_counters () =
  let writes = 24 in
  let _device, logger, q =
    Test_quorum.quorum_rig ~config:(one_replica 1) ~writes ()
  in
  let replica = Net.Quorum.node_replica q 0 in
  Alcotest.(check int) "every admission sent" writes (Net.Quorum.sent q);
  Alcotest.(check int) "every entry acked back" writes (Net.Quorum.acks q);
  Alcotest.(check int) "every seq committed" writes (Net.Quorum.commit_seq q);
  Alcotest.(check int) "replica received all" writes (Net.Replica.received replica);
  Alcotest.(check int) "replica drained all" writes (Net.Replica.drained_writes replica);
  Alcotest.(check int) "nothing left on the wire" 0 (Net.Quorum.wire_in_flight q);
  Alcotest.(check int) "logger acked every write" writes
    (Rapilog.Trusted_logger.acked_writes logger);
  let seqs = List.map (fun (seq, _, _) -> seq) (Net.Replica.entries replica) in
  Alcotest.(check (list int)) "arrival order is the admission sequence"
    (List.init writes (fun i -> i + 1))
    seqs

(* The three RapiLog-R policies: async (k = 0), replica-ack (k = 1) and
   local (plain rapilog, no replica). *)
let replicated_steady_commits () =
  List.iter
    (fun (name, config) ->
      let r = Harness.Experiment.run_steady config in
      Alcotest.(check bool)
        (name ^ " commits in window")
        true
        (r.Harness.Experiment.committed_in_window > 0))
    [
      ("async-replica", replicated_scenario ~quorum:0 ());
      ("replica-ack", replicated_scenario ~quorum:1 ());
      ( "local",
        {
          (replicated_scenario ()) with
          Harness.Scenario.mode = Harness.Scenario.Rapilog;
          quorum = Net.Quorum.default;
        } );
    ]

(* With the only replica partitioned off, k = 0 keeps committing — its
   entries pile up on the held link — while k = 1 parks the first
   writer for good. *)
let partitioned_replica () =
  let writes = 8 in
  let partition q = Net.Quorum.partition_node q 0 in
  let _device, logger, q =
    Test_quorum.quorum_rig ~config:(one_replica 0) ~writes ~setup:partition ()
  in
  Alcotest.(check int) "k = 0: every write acked" writes
    (Rapilog.Trusted_logger.acked_writes logger);
  Alcotest.(check int) "k = 0: every seq committed at send" writes
    (Net.Quorum.commit_seq q);
  Alcotest.(check int) "k = 0: the replica received nothing" 0
    (Net.Replica.received (Net.Quorum.node_replica q 0));
  Alcotest.(check int) "k = 0: the entries are held on the wire" writes
    (Net.Quorum.wire_in_flight q);
  let _device, logger, q =
    Test_quorum.quorum_rig ~config:(one_replica 1) ~writes ~setup:partition ()
  in
  Alcotest.(check int) "k = 1: no write acked" 0
    (Rapilog.Trusted_logger.acked_writes logger);
  Alcotest.(check int) "k = 1: nothing committed" 0 (Net.Quorum.commit_seq q);
  Alcotest.(check int) "k = 1: only the first entry was sent" 1
    (Net.Quorum.sent q)

(* No retransmit: a lossy link would stall every commit, so attach
   refuses one and names it. *)
let lossy_link_rejected () =
  let config =
    {
      (one_replica 1) with
      Net.Quorum.links =
        [ { Net.Link.default with Net.Link.drop_probability = 0.05 } ];
    }
  in
  match Test_quorum.quorum_rig ~config () with
  | _ -> Alcotest.fail "lossy link accepted"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) ("message names the link: " ^ msg) true
        (contains msg "link 0" && contains msg "drop")

let replicated_steady_deterministic () =
  let config = replicated_scenario () in
  let a = Harness.Experiment.run_steady config in
  let b = Harness.Experiment.run_steady config in
  Alcotest.(check bool) "rerun bit-identical" true (a = b);
  let c, _registry = Harness.Experiment.run_steady_metrics config in
  Alcotest.(check bool) "metrics recording does not perturb the run" true (a = c)

(* -- quorum scenario ------------------------------------------------------- *)

let quorum_scenario ?(replicas = 3) ?(quorum = 2) () =
  {
    (replicated_scenario ()) with
    Harness.Scenario.mode = Harness.Scenario.Rapilog_quorum;
    quorum = { Net.Quorum.default with Net.Quorum.replicas; quorum };
  }

let quorum_steady_deterministic () =
  let config = quorum_scenario () in
  let a = Harness.Experiment.run_steady config in
  Alcotest.(check bool) "commits in window" true
    (a.Harness.Experiment.committed_in_window > 0);
  let b = Harness.Experiment.run_steady config in
  Alcotest.(check bool) "rerun bit-identical" true (a = b);
  let c, _registry = Harness.Experiment.run_steady_metrics config in
  Alcotest.(check bool) "metrics recording does not perturb the run" true (a = c)

(* Partition + heal under quorum: the same seed must reproduce the
   whole delivery schedule — same audit verdict *and* the same elected
   leader at the same term. *)
let quorum_partition_heal_deterministic () =
  let sweep_config =
    {
      (Harness.Crash_surface.default (quorum_scenario ())) with
      Harness.Crash_surface.window_start = Time.ms 2;
      window_length = Time.ms 2;
      kinds = [ Harness.Crash_surface.Machine_loss ];
    }
  in
  let enum =
    Harness.Crash_surface.enumerate sweep_config Harness.Crash_surface.Machine_loss
  in
  let count = Array.length enum.Harness.Crash_surface.e_candidates in
  Alcotest.(check bool) "boundaries found" true (count >= 2);
  let first_event, first_ns = enum.Harness.Crash_surface.e_candidates.(0) in
  let _, second_ns = enum.Harness.Crash_surface.e_candidates.(count - 1) in
  let run () =
    Harness.Crash_surface.run_pair_point sweep_config
      ~schedule:Harness.Crash_surface.Partition_heal ~first_event ~first_ns
      ~second_ns ~node:1
  in
  let a = run () in
  Alcotest.(check bool) "verdict bit-identical on rerun" true (a = run ());
  Alcotest.(check bool) "an election concluded" true
    (a.Harness.Crash_surface.pv_elected >= 0);
  Alcotest.(check bool) "election quorate" true
    a.Harness.Crash_surface.pv_election_quorate;
  Alcotest.(check int) "no quorum-acked commit lost" 0
    a.Harness.Crash_surface.pv_lost;
  Alcotest.(check bool) "contract holds through partition and heal" true
    a.Harness.Crash_surface.pv_contract_ok

(* A small slice of the pair sweep: zero breaks at majority quorum, and
   the parallel sweep is bit-identical to the serial one. *)
let quorum_pair_sweep_tiny () =
  let sweep_config =
    {
      (Harness.Crash_surface.default (quorum_scenario ())) with
      Harness.Crash_surface.window_start = Time.ms 2;
      window_length = Time.ms 2;
      kinds = [ Harness.Crash_surface.Machine_loss ];
    }
  in
  let schedules =
    [
      Harness.Crash_surface.Primary_then_node;
      Harness.Crash_surface.Partition_commit;
    ]
  in
  let serial =
    Harness.Crash_surface.sweep_pairs ~jobs:1 sweep_config ~schedules ~target:3
  in
  Alcotest.(check bool) "pair points explored" true
    (serial.Harness.Crash_surface.pr_points >= 4);
  Alcotest.(check int) "zero contract breaks" 0
    serial.Harness.Crash_surface.pr_breaks;
  Alcotest.(check int) "zero quorum-acked commits lost" 0
    serial.Harness.Crash_surface.pr_lost_total;
  let parallel =
    Harness.Crash_surface.sweep_pairs ~jobs:4 sweep_config ~schedules ~target:3
  in
  Alcotest.(check bool) "jobs=1 equals jobs=4" true (serial = parallel)

let pair_schedule_names_roundtrip () =
  List.iter
    (fun schedule ->
      Alcotest.(check bool)
        (Harness.Crash_surface.pair_schedule_name schedule ^ " roundtrips")
        true
        (Harness.Crash_surface.pair_schedule_of_name
           (Harness.Crash_surface.pair_schedule_name schedule)
        = Some schedule))
    Harness.Crash_surface.all_pair_schedules

(* -- machine loss --------------------------------------------------------- *)

let local_scenario () =
  {
    (replicated_scenario ()) with
    Harness.Scenario.mode = Harness.Scenario.Rapilog;
    quorum = Net.Quorum.default;
  }

let tiny_sweep scenario =
  {
    (Harness.Crash_surface.default scenario) with
    Harness.Crash_surface.window_start = Time.ms 2;
    window_length = Time.ms 2;
    stride = 60;
    kinds = [ Harness.Crash_surface.Machine_loss ];
  }

(* The PR's central asymmetry: at machine-loss boundaries, replica-ack
   RapiLog never breaks the durability contract while local RapiLog
   demonstrably loses buffered acknowledged commits. *)
let machine_loss_asymmetry () =
  let replicated =
    Harness.Crash_surface.sweep ~jobs:1 (tiny_sweep (replicated_scenario ()))
  in
  Alcotest.(check bool) "replicated: points explored" true
    (replicated.Harness.Crash_surface.r_explored >= 3);
  Alcotest.(check int) "replicated: zero contract breaks" 0
    replicated.Harness.Crash_surface.r_contract_breaks;
  Alcotest.(check int) "replicated: zero lost commits" 0
    replicated.Harness.Crash_surface.r_lost_total;
  let local =
    Harness.Crash_surface.sweep_journal ~jobs:1
      { (tiny_sweep (local_scenario ())) with Harness.Crash_surface.stride = 25 }
  in
  Alcotest.(check bool) "local: points explored" true
    (local.Harness.Crash_surface.r_explored >= 3);
  Alcotest.(check bool) "local rapilog loses buffered commits" true
    (local.Harness.Crash_surface.r_lost_total > 0)

(* The journal reconstruction must model machine loss exactly like the
   full replay does — same differential oracle as the three original
   kinds, media digests included. *)
let machine_loss_journal_matches_replay () =
  let config =
    {
      (tiny_sweep (local_scenario ())) with
      Harness.Crash_surface.stride = 25;
      media_digests = true;
    }
  in
  let replay = Harness.Crash_surface.sweep ~jobs:1 config in
  let journal = Harness.Crash_surface.sweep_journal ~jobs:1 config in
  Alcotest.(check bool) "summaries bit-identical" true (replay = journal)

let machine_loss_sweep_parallel_deterministic () =
  let config = tiny_sweep (replicated_scenario ()) in
  let serial = Harness.Crash_surface.sweep ~jobs:1 config in
  let parallel = Harness.Crash_surface.sweep ~jobs:4 config in
  Alcotest.(check bool) "jobs=1 equals jobs=4" true (serial = parallel)

let kind_names_roundtrip () =
  List.iter
    (fun kind ->
      Alcotest.(check bool)
        (Harness.Crash_surface.kind_name kind ^ " roundtrips")
        true
        (Harness.Crash_surface.kind_of_name (Harness.Crash_surface.kind_name kind)
        = Some kind))
    Harness.Crash_surface.all_kinds;
  Alcotest.(check bool) "machine loss not in the default sweep" true
    (not
       (List.mem Harness.Crash_surface.Machine_loss
          Harness.Crash_surface.default_kinds))

let suites =
  [
    ( "net.link",
      [
        prop "fifo per link" ~count:120
          QCheck2.Gen.(triple gen_config gen_sends gen_seed)
          fifo_law;
        prop "delivery schedule is a pure function of the seed" ~count:80
          QCheck2.Gen.(triple gen_config gen_sends gen_seed)
          determinism_law;
        prop "partition+heal delivers exactly the non-dropped backlog" ~count:80
          QCheck2.Gen.(triple gen_config gen_sends gen_seed)
          partition_heal_law;
        case "sever discards backlog and future sends" sever_discards;
        case "sever drops partition state; late heal is a no-op"
          sever_clears_partition;
        case "constant latency is exact" constant_latency_exact;
        case "bandwidth serialises back-to-back sends" bandwidth_serialises;
      ] );
    ( "net.fault",
      [
        case "outage drawn within bounds" outage_in_bounds;
        case "degenerate intervals deterministic, reversed raise"
          outage_degenerate_and_reversed;
      ] );
    ( "net.replication",
      [
        case "datapath counters line up" replication_counters;
        case "all policies commit" replicated_steady_commits;
        case "replicated steady run deterministic" replicated_steady_deterministic;
        case "partitioned replica: k = 0 commits, k = 1 stalls"
          partitioned_replica;
        case "lossy link rejected at attach" lossy_link_rejected;
      ] );
    ( "net.quorum-scenario",
      [
        case "quorum steady run deterministic" quorum_steady_deterministic;
        case "partition+heal deterministic, same elected leader"
          quorum_partition_heal_deterministic;
        case "tiny pair sweep: zero breaks, parallel bit-identical"
          quorum_pair_sweep_tiny;
        case "pair schedule names roundtrip" pair_schedule_names_roundtrip;
      ] );
    ( "net.machine-loss",
      [
        case "replica-ack survives, local rapilog loses" machine_loss_asymmetry;
        case "journal reconstruction matches full replay"
          machine_loss_journal_matches_replay;
        case "parallel sweep bit-identical" machine_loss_sweep_parallel_deterministic;
        case "kind names roundtrip; machine loss opt-in" kind_names_roundtrip;
      ] );
  ]
