(* replication and quorum: the gates of the replicated trusted logger.
   Both run on the one replication runtime, Net.Quorum: RapiLog-R's
   replica-ack is the rapilog-replicated preset (one replica, k = 1),
   async-replica the same cluster at k = 0, and local is plain rapilog.

   replication makes two claims, with teeth:
   - tab7-machine-loss: sweep the machine-loss crash kind — the whole
     primary vanishing with no residual-energy window — over every
     strided boundary of the crash window. Local RapiLog must lose
     buffered acknowledged commits at every one (the loss that bounds
     its durability domain, and the teeth that prove the sweep sees
     machine loss at all); replica-ack must show zero contract breaks
     and zero lost commits.
   - fig12-replication: throughput and commit latency of the three ack
     policies as the network RTT grows, on the 7200 rpm disk and the
     SSD, with the round trips a replica-ack commit must pay.

   quorum is RapiLog-Q (n replicas, commit on k acks, explicit leader
   election):
   - pair-sweep: every strided ordered pair of machine-loss boundaries
     under all four crash-pair/partition schedules, at majority quorum
     (3 replicas, k = 2) — zero contract breaks, zero quorum-acked
     commits lost, every recovery election quorate;
   - quorum-1 control: the same pair schedules at k = 1 over asymmetric
     links (one fast replica, two slow) must lose acknowledged commits
     and stall non-quorate elections — the teeth that prove the pair
     sweep can see under-replication at all;
   - quorum-grid: commit latency over quorum size k x RTT with
     staggered per-replica links — a k = 3 commit waits for the slowest
     replica, a k = 1 commit for the fastest.

   Both must stay deterministic: sweeps bit-identical across worker
   counts, and a steady run with Desim.Metrics recording on identical
   to one with it off, with the replication spans on the registry. *)

open Desim
open Harness
open Harness.Json

let scenario ~quick = Gate.micro_scenario ~quick ~seed:20_2613L

let machine_loss ~quick scenario =
  Gate.surface ~kinds:[ Crash_surface.Machine_loss ] scenario
    ~length:(if quick then Time.ms 4 else Time.ms 20)

let quorum_scenario ~quick ~replicas ~quorum ~links =
  {
    (scenario ~quick) with
    Scenario.mode = Scenario.Rapilog_quorum;
    quorum = { Net.Quorum.replicas; quorum; links };
  }

let one_way_us us =
  { Net.Link.default with Net.Link.latency = Net.Link.Constant (Time.ns (us * 1000)) }

let rtts ~quick = if quick then [ 50; 1000 ] else [ 0; 50; 200; 1000; 4000 ]

let required_spans =
  [ "logger.replicate"; "logger.quorum_wait"; "net.link_delay"; "replica.drain" ]

let ints l = Arr (List.map Gate.num_int l)

(* -- replication: RapiLog-R ------------------------------------------------ *)

(* RapiLog-R's ack policies by name: how many replica acks a commit
   waits for, [None] for local rapilog with no replica at all. *)
let policies = [ ("local", None); ("replica-ack", Some 1); ("async-replica", Some 0) ]

(* One replica behind a constant-latency link of half the RTT each way,
   default 10 GbE serialisation, no drops. *)
let replicated_scenario ~quick ~ack ~rtt_us =
  match ack with
  | None -> { (scenario ~quick) with Scenario.mode = Scenario.Rapilog }
  | Some k -> quorum_scenario ~quick ~replicas:1 ~quorum:k ~links:[ one_way_us (rtt_us / 2) ]

let replication (g : Gate.t) =
  let quick = g.Gate.quick in
  (* Local RapiLog: the journal sweep covers the surface cheaply (every
     boundary when not quick — the statement is about the whole
     surface, not a sample). *)
  let local_config =
    machine_loss ~quick { (scenario ~quick) with Scenario.mode = Scenario.Rapilog }
  in
  let local_config =
    if quick then Gate.autostride g local_config ~target:60 else local_config
  in
  let local, local_s = Gate.timed (fun () -> Crash_surface.sweep_journal local_config) in
  Printf.printf
    "replication: machine-loss local rapilog: %d/%d boundaries, %d contract breaks, \
     %d acked commits lost (%.2fs)\n%!"
    local.Crash_surface.r_explored local.Crash_surface.r_total_boundaries
    local.Crash_surface.r_contract_breaks local.Crash_surface.r_lost_total local_s;

  (* Replica-ack: full replay per point — the sweep runs the network,
     the replica and the merged recovery. *)
  let repl_scenario = replicated_scenario ~quick ~ack:(Some 1) ~rtt_us:50 in
  let repl_config =
    Gate.autostride g (machine_loss ~quick repl_scenario) ~target:(if quick then 24 else 400)
  in
  let repl = Gate.serial_vs_parallel (fun ~jobs -> Crash_surface.sweep ~jobs repl_config) in
  let replicated = repl.Gate.serial in
  Printf.printf
    "replication: machine-loss replica-ack: %d points, %d contract breaks, %d lost \
     (%.2fs); parallel bit-identical: %b\n%!"
    replicated.Crash_surface.r_explored replicated.Crash_surface.r_contract_breaks
    replicated.Crash_surface.r_lost_total repl.Gate.serial_s repl.Gate.identical;
  Gate.check g "replicated.breaks" (replicated.Crash_surface.r_contract_breaks = 0)
    (Printf.sprintf "replica-ack machine-loss sweep found %d contract breaks (want 0)"
       replicated.Crash_surface.r_contract_breaks);
  Gate.check g "replicated.lost" (replicated.Crash_surface.r_lost_total = 0)
    "replica-ack machine-loss sweep lost acked commits (want 0)";
  Gate.check g "replicated.explored"
    (replicated.Crash_surface.r_explored >= if quick then 8 else 100)
    (Printf.sprintf "replicated sweep explored only %d points"
       replicated.Crash_surface.r_explored);
  Gate.check g "replicated.parallel_identical" repl.Gate.identical
    "replicated sweep differs between worker counts";
  Gate.check g "local.breaks_everywhere"
    (local.Crash_surface.r_contract_breaks = local.Crash_surface.r_explored)
    (Printf.sprintf
       "local rapilog broke its contract at %d of %d machine-loss boundaries (want \
        every one: the sweep must see the failure it claims to cover)"
       local.Crash_surface.r_contract_breaks local.Crash_surface.r_explored);
  Gate.check g "local.explored"
    (local.Crash_surface.r_explored >= if quick then 20 else 500)
    (Printf.sprintf "local sweep explored only %d points" local.Crash_surface.r_explored);
  Gate.report g "tab7_machine_loss"
    (Obj
       [
         ("local", Gate.sweep_json ~label:"rapilog" local);
         ("local_seconds", Num local_s);
         ("replicated", Gate.sweep_json ~label:"rapilog-replicated" replicated);
         ("replicated_seconds", Num repl.Gate.serial_s);
         ("replicated_parallel_bit_identical", Bool repl.Gate.identical);
       ]);

  (* -- fig12: throughput/latency vs RTT, three policies, two devices --- *)
  let rtts_us = rtts ~quick in
  let devices =
    [
      ("hdd", Scenario.Disk Storage.Hdd.default_7200rpm);
      ("ssd", Scenario.Flash Storage.Ssd.default);
    ]
  in
  (* One client commits alone; four form a group-commit convoy. *)
  let client_counts = [ 1; 4 ] in
  let keys =
    List.concat_map
      (fun (device_name, device) ->
        List.concat_map
          (fun clients ->
            List.concat_map
              (fun rtt_us ->
                List.map
                  (fun (policy, ack) ->
                    ( (device_name, clients, rtt_us, policy),
                      { (replicated_scenario ~quick ~ack ~rtt_us) with Scenario.device; clients }
                    ))
                  policies)
              rtts_us)
          client_counts)
      devices
  in
  let results, fig12_s =
    Gate.timed (fun () -> Experiment.run_steady_batch (List.map snd keys))
  in
  let tagged = List.combine (List.map fst keys) results in
  Printf.printf "replication: fig12 grid: %d cells (%.2fs)\n%!" (List.length tagged) fig12_s;
  List.iter
    (fun ((device_name, clients, rtt_us, policy), (r : Experiment.steady_result)) ->
      Gate.check g
        (Printf.sprintf "fig12.commits/%s/%d/%d/%s" device_name clients rtt_us policy)
        (r.Experiment.committed_in_window > 0)
        "fig12 cell committed nothing")
    tagged;
  (* What the fig12 table reports of a cell. *)
  let shape (r : Experiment.steady_result) =
    ( r.Experiment.throughput,
      r.Experiment.latency_p50_us,
      r.Experiment.latency_p99_us,
      r.Experiment.committed_in_window )
  in
  let cell device_name clients rtt_us policy =
    shape (List.assoc (device_name, clients, rtt_us, policy) tagged)
  in
  let p50 device_name clients rtt_us policy =
    let _, p50, _, _ = cell device_name clients rtt_us policy in
    p50
  in
  (* Physics: a lone replica-ack commit pays exactly one round trip
     over local. Four clients convoy behind the serialised log force — a
     commit waits out the force in flight, then its own — so they pay
     between one and two. Local and async-replica do not see the network
     at all; and RapiLog acks from the buffer, so the device leaves the
     commit path. *)
  let base_rtt = List.hd rtts_us in
  List.iter
    (fun ((device_name, clients, rtt_us, policy), r) ->
      let name what = Printf.sprintf "fig12.%s/%s/%d/%d" what device_name clients rtt_us in
      (match policy with
      | "replica-ack" ->
          let local = p50 device_name clients rtt_us "local" in
          let ack = r.Experiment.latency_p50_us and rtt = float_of_int rtt_us in
          let lo, hi = (local +. rtt, local +. if clients = 1 then rtt else 2. *. rtt) in
          Gate.check g (name "round_trips")
            (ack >= lo -. 1. && ack <= hi +. 1.)
            (Printf.sprintf
               "replica-ack p50 %.1f us outside [%.1f, %.1f] us, local p50 %.1f us plus \
                the round trips it must pay (want within 1 us)"
               ack lo hi local)
      | _ ->
          Gate.check g (name ("rtt_blind/" ^ policy))
            (shape r = cell device_name clients base_rtt policy)
            (Printf.sprintf "result moves with RTT (%d vs %d us)" rtt_us base_rtt));
      if device_name = "hdd" then
        Gate.check g (Printf.sprintf "fig12.device_blind/%d/%d/%s" clients rtt_us policy)
          (cell "ssd" clients rtt_us policy = shape r)
          "fig12 hdd and ssd cells differ")
    tagged;
  let cell_json ((device_name, _, rtt_us, policy), r) =
    Obj
      ([ ("device", Str device_name); ("rtt_us", Gate.num_int rtt_us); ("policy", Str policy) ]
      @ Gate.steady_json r)
  in
  Gate.report g "fig12_replication"
    (Obj
       [
         ("rtts_us", ints rtts_us);
         ("policies", Arr (List.map (fun (p, _) -> Str p) policies));
         ("devices", Arr (List.map (fun (n, _) -> Str n) devices));
         ("clients", ints client_counts);
         ("seconds", Num fig12_s);
         ("cells", Arr (List.map cell_json tagged));
       ]);
  Gate.report g "determinism"
    (Obj
       (Gate.metrics_identity g "determinism" ~required:required_spans (fun () ->
            Experiment.run_steady repl_scenario)))

(* -- quorum: RapiLog-Q ------------------------------------------------------ *)

let pair_sweep_json (r : Crash_surface.pair_result) =
  let count p = List.length (List.filter p r.Crash_surface.pr_verdicts) in
  Obj
    [
      ("mode", Str (Scenario.mode_name r.Crash_surface.pr_mode));
      ("candidates", Gate.num_int r.Crash_surface.pr_candidates);
      ("pairs", Gate.num_int r.Crash_surface.pr_pairs);
      ("points", Gate.num_int r.Crash_surface.pr_points);
      ("contract_breaks", Gate.num_int r.Crash_surface.pr_breaks);
      ("lost_total", Gate.num_int r.Crash_surface.pr_lost_total);
      ("lossy_points", Gate.num_int (count (fun v -> v.Crash_surface.pv_lost > 0)));
      ( "non_quorate_elections",
        Gate.num_int (count (fun v -> not v.Crash_surface.pv_election_quorate)) );
      ( "schedules",
        Arr
          (List.map
             (fun (s : Crash_surface.pair_summary) ->
               Obj
                 [
                   ("schedule", Str (Crash_surface.pair_schedule_name s.Crash_surface.ps_schedule));
                   ("points", Gate.num_int s.Crash_surface.ps_points);
                   ("contract_breaks", Gate.num_int s.Crash_surface.ps_breaks);
                   ("lost", Gate.num_int s.Crash_surface.ps_lost);
                 ])
             r.Crash_surface.pr_schedules) );
    ]

let quorum (g : Gate.t) =
  let quick = g.Gate.quick in
  (* -- pair sweep at majority quorum: the tentpole claim -------------- *)
  let majority_scenario =
    quorum_scenario ~quick ~replicas:3 ~quorum:2 ~links:[ Net.Link.default ]
  in
  let pair_config = machine_loss ~quick majority_scenario in
  let sweep =
    Gate.serial_vs_parallel (fun ~jobs ->
        Crash_surface.sweep_pairs ~jobs pair_config
          ~schedules:Crash_surface.all_pair_schedules ~target:(if quick then 8 else 40))
  in
  let pairs = sweep.Gate.serial in
  Printf.printf
    "quorum: quorum(3,2) pair sweep: %d points over %d schedules, %d contract breaks, \
     %d lost (%.2fs); parallel bit-identical: %b\n%!"
    pairs.Crash_surface.pr_points
    (List.length pairs.Crash_surface.pr_schedules)
    pairs.Crash_surface.pr_breaks pairs.Crash_surface.pr_lost_total sweep.Gate.serial_s
    sweep.Gate.identical;
  Gate.check g "pairs.breaks" (pairs.Crash_surface.pr_breaks = 0)
    (Printf.sprintf "quorum(3,2) pair sweep found %d contract breaks (want 0)"
       pairs.Crash_surface.pr_breaks);
  Gate.check g "pairs.lost" (pairs.Crash_surface.pr_lost_total = 0)
    "quorum(3,2) pair sweep lost quorum-acked commits (want 0)";
  Gate.check g "pairs.explored"
    (pairs.Crash_surface.pr_points >= if quick then 12 else 80)
    (Printf.sprintf "pair sweep explored only %d points" pairs.Crash_surface.pr_points);
  List.iter
    (fun (s : Crash_surface.pair_summary) ->
      let name = Crash_surface.pair_schedule_name s.Crash_surface.ps_schedule in
      Gate.check g ("pairs.schedule_ran/" ^ name) (s.Crash_surface.ps_points >= 1)
        (Printf.sprintf "schedule %s ran no points" name))
    pairs.Crash_surface.pr_schedules;
  Gate.check g "pairs.schedules" (List.length pairs.Crash_surface.pr_schedules = 4)
    "pair sweep did not cover all four schedules";
  Gate.check g "pairs.elections_quorate"
    (List.for_all
       (fun v -> v.Crash_surface.pv_election_quorate && v.Crash_surface.pv_elected >= 0)
       pairs.Crash_surface.pr_verdicts)
    "a majority-quorum recovery election failed to reach its quorum";
  Gate.check g "pairs.parallel_identical" sweep.Gate.identical
    "pair sweep differs between worker counts";

  (* -- quorum-1 control: the teeth ------------------------------------ *)
  (* One fast replica acks before the two slow ones even receive, so a
     k = 1 commit's only replicated copy sits on the fast node — losing
     the primary plus that node must lose commits, and with only two of
     three replicas left the k = 1 adoption quorum (n - k + 1 = 3) is
     unreachable, so recovery elections stall non-quorate. *)
  let control_scenario =
    quorum_scenario ~quick ~replicas:3 ~quorum:1
      ~links:[ one_way_us 25; one_way_us 2000; one_way_us 2000 ]
  in
  let control, control_s =
    Gate.timed (fun () ->
        Crash_surface.sweep_pairs
          (machine_loss ~quick control_scenario)
          ~schedules:[ Crash_surface.Primary_then_node; Crash_surface.Node_then_primary ]
          ~target:(if quick then 9 else 30))
  in
  let control_non_quorate =
    List.exists
      (fun v -> not v.Crash_surface.pv_election_quorate)
      control.Crash_surface.pr_verdicts
  in
  Printf.printf
    "quorum: quorum(3,1) control: %d points, %d lost, non-quorate elections: %b (%.2fs)\n%!"
    control.Crash_surface.pr_points control.Crash_surface.pr_lost_total
    control_non_quorate control_s;
  Gate.check g "control.lost" (control.Crash_surface.pr_lost_total >= 1)
    "quorum-1 control lost nothing to the crash pairs (teeth are missing: the sweep \
     cannot see under-replication)";
  Gate.check g "control.non_quorate" control_non_quorate
    "quorum-1 control elections were all quorate (want stalls)";

  (* -- quorum size x RTT grid ----------------------------------------- *)
  let rtts_us = rtts ~quick in
  let ks = [ 1; 2; 3 ] in
  let grid_keys = List.concat_map (fun rtt_us -> List.map (fun k -> (k, rtt_us)) ks) rtts_us in
  let grid_cell (k, rtt_us) =
    {
      (quorum_scenario ~quick ~replicas:3 ~quorum:k
         ~links:[ one_way_us (rtt_us / 2); one_way_us rtt_us; one_way_us (3 * rtt_us / 2) ])
      with
      Scenario.device = Scenario.Flash Storage.Ssd.default;
    }
  in
  let grid_results, grid_s =
    Gate.timed (fun () -> Experiment.run_steady_batch (List.map grid_cell grid_keys))
  in
  let grid = List.combine grid_keys grid_results in
  Printf.printf "quorum: quorum grid: %d cells (%.2fs)\n%!" (List.length grid) grid_s;
  List.iter
    (fun ((k, rtt_us), (r : Experiment.steady_result)) ->
      Gate.check g
        (Printf.sprintf "grid.commits/%d/%d" k rtt_us)
        (r.Experiment.committed_in_window > 0)
        "quorum grid cell committed nothing")
    grid;
  (* Physics: a k = 3 commit waits for the slowest replica's round trip,
     a k = 1 commit for the fastest. *)
  let top_rtt = List.fold_left max 0 rtts_us in
  let p50_of k = (List.assoc (k, top_rtt) grid).Experiment.latency_p50_us in
  Gate.check g "grid.slowest_replica" (p50_of 3 > p50_of 1)
    (Printf.sprintf "quorum-3 p50 (%.0f us) should exceed quorum-1 p50 (%.0f us) at %d us RTT"
       (p50_of 3) (p50_of 1) top_rtt);

  let determinism =
    Gate.metrics_identity g "determinism" ~required:required_spans (fun () ->
        Experiment.run_steady majority_scenario)
  in
  Gate.report g "pair_sweep"
    (Obj
       [
         ("replicas", Num 3.);
         ("quorum", Num 2.);
         ("result", pair_sweep_json pairs);
         ("seconds", Num sweep.Gate.serial_s);
         ("parallel_bit_identical", Bool sweep.Gate.identical);
       ]);
  Gate.report g "quorum_one_control"
    (Obj
       [
         ("replicas", Num 3.);
         ("quorum", Num 1.);
         ("result", pair_sweep_json control);
         ("seconds", Num control_s);
       ]);
  Gate.report g "quorum_grid"
    (Obj
       [
         ("rtts_us", ints rtts_us);
         ("quorums", ints ks);
         ("seconds", Num grid_s);
         ( "cells",
           Arr
             (List.map
                (fun ((k, rtt_us), r) ->
                  Obj ([ ("quorum", Gate.num_int k); ("rtt_us", Gate.num_int rtt_us) ] @ Gate.steady_json r))
                grid) );
       ]);
  Gate.report g "determinism" (Obj determinism)

let experiments =
  [
    Gate.experiment ~id:"replication"
      ~title:"RapiLog-R gate: machine-loss sweep and the fig12 RTT grid"
      ~description:"replica-ack survives machine loss, local rapilog does not; RTT physics"
      replication;
    Gate.experiment ~id:"quorum"
      ~title:"RapiLog-Q gate: crash-pair sweep, quorum-1 control, k x RTT grid"
      ~description:"majority quorum loses nothing at any crash pair; k=1 control loses"
      quorum;
  ]
