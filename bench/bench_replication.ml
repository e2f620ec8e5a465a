(* fig12-replication: the cost of the replicated durability domain.
   Throughput and commit latency of the three ack policies as the
   network round-trip grows, on the rotational disk and on flash. The
   policies are configurations of the one replication runtime: local is
   plain rapilog, replica-ack the rapilog-replicated preset (a
   one-replica quorum cluster at k = 1), async-replica the same cluster
   at k = 0. A replica-ack log force pays one RTT; local and
   async-replica pay nothing — the device barely matters because the
   RapiLog commit path acks from the trusted buffer either way. The
   machine-readable version of this experiment (with the machine-loss
   sweep it buys) is the replication gate → BENCH_replication.json. *)

open Harness
open Bench_support

let rtts_us ~quick = if quick then [ 50; 1000 ] else [ 0; 50; 200; 1000; 4000 ]

(* Replica acks a commit waits for; [None] is local rapilog. *)
let policies = [ ("local", None); ("replica-ack", Some 1); ("async-replica", Some 0) ]

let cell ~quick ~device ~ack ~rtt_us =
  let base = { (base_config ~quick) with Scenario.device; clients = 8 } in
  steady
    (match ack with
    | None -> { base with Scenario.mode = Scenario.Rapilog }
    | Some quorum ->
        let one_way =
          {
            Net.Link.default with
            Net.Link.latency =
              Net.Link.Constant (Desim.Time.ns (rtt_us * 1000 / 2));
          }
        in
        {
          base with
          Scenario.mode = Scenario.Rapilog_quorum;
          quorum = { Net.Quorum.replicas = 1; quorum; links = [ one_way ] };
        })

let fig12 =
  {
    id = "fig12-replication";
    title = "Fig 12: ack policies vs network RTT (RapiLog-R)";
    description =
      "rapilog-R ack policies (local, replica-ack, async-replica) against \
       network round-trip time";
    run =
      (fun ~quick ->
        Report.section
          "Fig 12: replicated logger — throughput/latency vs link RTT (8 \
           clients, TPC-C-lite)";
        List.iter
          (fun (device_label, device) ->
            Report.kv "device" device_label;
            Report.table
              ~columns:
                [ "rtt us"; "policy"; "txn/s"; "p50 us"; "p99 us"; "vs local" ]
              ~rows:
                (List.concat_map
                   (fun rtt_us ->
                     let baseline = cell ~quick ~device ~ack:None ~rtt_us in
                     List.map
                       (fun (policy, ack) ->
                         let r = cell ~quick ~device ~ack ~rtt_us in
                         [
                           string_of_int rtt_us;
                           policy;
                           Report.float_cell r.Experiment.throughput;
                           Printf.sprintf "%.0f" r.Experiment.latency_p50_us;
                           Printf.sprintf "%.0f" r.Experiment.latency_p99_us;
                           Printf.sprintf "%.2fx"
                             (r.Experiment.throughput
                             /. baseline.Experiment.throughput);
                         ])
                       policies)
                   (rtts_us ~quick));
            print_newline ())
          [
            ("hdd-7200rpm", Scenario.Disk Storage.Hdd.default_7200rpm);
            ("ssd", Scenario.Flash Storage.Ssd.default);
          ]);
  }

let experiments = [ fig12 ]
