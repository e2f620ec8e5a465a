(* RapiLog-R / RapiLog-Q: machine-readable evidence for the replicated
   trusted logger (PR 5) and, behind --quorum, the quorum-replicated
   logger (PR 7).

   The PR 5 sections make two claims, with teeth:

   - tab7-machine-loss: sweep the machine-loss crash kind — the whole
     primary vanishing with no residual-energy window — over every
     strided event boundary of the crash window. Local RapiLog is
     expected to lose buffered acknowledged commits (that loss bounds
     its durability domain and is the teeth that prove the sweep can see
     machine loss at all); replica-ack RapiLog must show zero contract
     breaks and zero lost commits at every explored boundary.
   - fig12-replication: steady-state throughput and commit latency of
     the three ack policies (local, replica-ack, async-replica) as the
     network RTT grows, on both the 7200 rpm disk and the SSD.

   RapiLog-R runs on the one replication runtime, Net.Quorum: replica-ack
   is the rapilog-replicated preset (one replica, k = 1), async-replica
   the same cluster at k = 0, and local is plain rapilog.

   Replicated runs must stay deterministic: the machine-loss sweep is
   bit-identical across {!Harness.Parallel} jobs, and a steady run with
   {!Desim.Metrics} recording on is bit-identical to one with it off.

   With --quorum the harness instead produces the PR 7 evidence for
   RapiLog-Q (n replicas, commit on k acks, explicit leader election):

   - pair-sweep: every strided ordered pair of machine-loss boundaries
     under all four crash-pair/partition schedules, at majority quorum
     (3 replicas, k = 2) — zero contract breaks, zero quorum-acked
     commits lost, every recovery election quorate, and the sweep
     bit-identical across Parallel jobs;
   - quorum-1 control: the same pair schedules at k = 1 over asymmetric
     links (one fast replica, two slow) must lose acknowledged commits
     and stall non-quorate elections — the teeth that prove the pair
     sweep can see under-replication at all;
   - quorum-grid: steady-state commit latency over quorum size k x RTT
     with staggered per-replica links — a k = 3 commit waits for the
     slowest replica, a k = 1 commit for the fastest;
   - determinism: metrics recording must not perturb a quorum run, and
     the quorum spans must be on the registry.

   Writes a JSON report (default BENCH_PR5.json; BENCH_PR7.json with
   --quorum). With --check it self-validates so `dune runtest` keeps
   the harness honest.

   Usage: replication.exe [--quick] [--check] [--quorum] [--jobs N] [--output PATH] *)

open Desim
open Harness
open Harness.Json

let base_scenario ~quick =
  {
    Scenario.default with
    Scenario.workload =
      Scenario.Micro
        {
          Workload.Microbench.default_config with
          Workload.Microbench.keys = 256;
          value_bytes = 64;
        };
    clients = 4;
    seed = 20_2613L;
    warmup = Time.ms 1;
    duration = (if quick then Time.ms 10 else Time.ms 50);
  }

let surface_config ~quick scenario =
  {
    (Crash_surface.default scenario) with
    Crash_surface.kinds = [ Crash_surface.Machine_loss ];
    window_start = Time.ms 2;
    window_length = (if quick then Time.ms 4 else Time.ms 20);
  }

let autostride config ~target =
  let total =
    List.fold_left
      (fun acc kind ->
        acc + (Crash_surface.enumerate config kind).Crash_surface.e_boundaries)
      0 config.Crash_surface.kinds
  in
  (total, max 1 (total / target))

let sweep_json ~label (r : Crash_surface.result) =
  Obj
    [
      ("config", Str label);
      ("stride", Num (float_of_int r.Crash_surface.r_stride));
      ("total_boundaries", Num (float_of_int r.Crash_surface.r_total_boundaries));
      ("explored", Num (float_of_int r.Crash_surface.r_explored));
      ("contract_breaks", Num (float_of_int r.Crash_surface.r_contract_breaks));
      ("lost_total", Num (float_of_int r.Crash_surface.r_lost_total));
      ( "lossy_points",
        Num
          (float_of_int
             (List.length
                (List.filter
                   (fun v -> v.Crash_surface.v_lost > 0)
                   r.Crash_surface.r_verdicts))) );
    ]

(* -- PR 7: RapiLog-Q, the quorum-replicated logger ---------------------- *)

let quorum_scenario ~quick ~replicas ~quorum ~links =
  {
    (base_scenario ~quick) with
    Scenario.mode = Scenario.Rapilog_quorum;
    quorum = { Net.Quorum.replicas; quorum; links };
  }

let one_way_us us =
  {
    Net.Link.default with
    Net.Link.latency = Net.Link.Constant (Time.ns (us * 1000));
  }

(* RapiLog-R's ack policies by name: how many replica acks a commit
   waits for, [None] for local rapilog with no replica at all. *)
let policies = [ ("local", None); ("replica-ack", Some 1); ("async-replica", Some 0) ]

(* One replica behind a constant-latency link of half the RTT each way,
   default 10 GbE serialisation, no drops. *)
let replicated_scenario ~quick ~ack ~rtt_us =
  match ack with
  | None -> { (base_scenario ~quick) with Scenario.mode = Scenario.Rapilog }
  | Some k ->
      quorum_scenario ~quick ~replicas:1 ~quorum:k
        ~links:[ one_way_us (rtt_us / 2) ]

let pair_sweep_json (r : Crash_surface.pair_result) =
  let non_quorate =
    List.length
      (List.filter
         (fun v -> not v.Crash_surface.pv_election_quorate)
         r.Crash_surface.pr_verdicts)
  in
  let lossy =
    List.length
      (List.filter (fun v -> v.Crash_surface.pv_lost > 0) r.Crash_surface.pr_verdicts)
  in
  Obj
    [
      ("mode", Str (Scenario.mode_name r.Crash_surface.pr_mode));
      ("candidates", Num (float_of_int r.Crash_surface.pr_candidates));
      ("pairs", Num (float_of_int r.Crash_surface.pr_pairs));
      ("points", Num (float_of_int r.Crash_surface.pr_points));
      ("contract_breaks", Num (float_of_int r.Crash_surface.pr_breaks));
      ("lost_total", Num (float_of_int r.Crash_surface.pr_lost_total));
      ("lossy_points", Num (float_of_int lossy));
      ("non_quorate_elections", Num (float_of_int non_quorate));
      ( "schedules",
        Arr
          (List.map
             (fun (s : Crash_surface.pair_summary) ->
               Obj
                 [
                   ( "schedule",
                     Str (Crash_surface.pair_schedule_name s.Crash_surface.ps_schedule) );
                   ("points", Num (float_of_int s.Crash_surface.ps_points));
                   ("contract_breaks", Num (float_of_int s.Crash_surface.ps_breaks));
                   ("lost", Num (float_of_int s.Crash_surface.ps_lost));
                 ])
             r.Crash_surface.pr_schedules) );
    ]

let quorum_main ~quick ~check ~jobs ~output =
  let failures = ref [] in
  let fail msg = failures := msg :: !failures in

  (* -- pair sweep at majority quorum: the tentpole claim -------------- *)
  let majority_scenario =
    quorum_scenario ~quick ~replicas:3 ~quorum:2 ~links:[ Net.Link.default ]
  in
  let pair_config = surface_config ~quick majority_scenario in
  let target = if quick then 8 else 40 in
  let t0 = Unix.gettimeofday () in
  let pairs =
    Crash_surface.sweep_pairs ~jobs:1 pair_config
      ~schedules:Crash_surface.all_pair_schedules ~target
  in
  let pairs_s = Unix.gettimeofday () -. t0 in
  let pairs_parallel =
    Crash_surface.sweep_pairs ~jobs:4 pair_config
      ~schedules:Crash_surface.all_pair_schedules ~target
  in
  let pairs_identical = pairs = pairs_parallel in
  Printf.printf
    "replication: quorum(3,2) pair sweep: %d points over %d schedules, %d \
     contract breaks, %d lost (%.2fs); parallel bit-identical: %b\n%!"
    pairs.Crash_surface.pr_points
    (List.length pairs.Crash_surface.pr_schedules)
    pairs.Crash_surface.pr_breaks pairs.Crash_surface.pr_lost_total pairs_s
    pairs_identical;

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
  let control_config = surface_config ~quick control_scenario in
  let t1 = Unix.gettimeofday () in
  let control =
    Crash_surface.sweep_pairs ~jobs control_config
      ~schedules:[ Crash_surface.Primary_then_node; Crash_surface.Node_then_primary ]
      ~target:(if quick then 9 else 30)
  in
  let control_s = Unix.gettimeofday () -. t1 in
  let control_non_quorate =
    List.exists
      (fun v -> not v.Crash_surface.pv_election_quorate)
      control.Crash_surface.pr_verdicts
  in
  Printf.printf
    "replication: quorum(3,1) control: %d points, %d lost, non-quorate \
     elections: %b (%.2fs)\n%!"
    control.Crash_surface.pr_points control.Crash_surface.pr_lost_total
    control_non_quorate control_s;

  (* -- quorum size x RTT grid ----------------------------------------- *)
  let rtts_us = if quick then [ 50; 1000 ] else [ 0; 50; 200; 1000; 4000 ] in
  let ks = [ 1; 2; 3 ] in
  let grid_cell ~k ~rtt_us =
    {
      (quorum_scenario ~quick ~replicas:3 ~quorum:k
         ~links:
           [
             one_way_us (rtt_us / 2);
             one_way_us rtt_us;
             one_way_us (3 * rtt_us / 2);
           ])
      with
      Scenario.device = Scenario.Flash Storage.Ssd.default;
    }
  in
  let grid_keys =
    List.concat_map (fun rtt_us -> List.map (fun k -> (k, rtt_us)) ks) rtts_us
  in
  let t2 = Unix.gettimeofday () in
  let grid_results =
    Experiment.run_steady_batch ~jobs
      (List.map (fun (k, rtt_us) -> grid_cell ~k ~rtt_us) grid_keys)
  in
  let grid_s = Unix.gettimeofday () -. t2 in
  let grid = List.combine grid_keys grid_results in
  let grid_json ((k, rtt_us), (r : Experiment.steady_result)) =
    Obj
      [
        ("quorum", Num (float_of_int k));
        ("rtt_us", Num (float_of_int rtt_us));
        ("throughput_txn_s", Num r.Experiment.throughput);
        ("p50_us", Num r.Experiment.latency_p50_us);
        ("p99_us", Num r.Experiment.latency_p99_us);
        ("committed", Num (float_of_int r.Experiment.committed_in_window));
      ]
  in
  Printf.printf "replication: quorum grid: %d cells (%.2fs)\n%!"
    (List.length grid) grid_s;

  (* -- determinism ----------------------------------------------------- *)
  let plain = Experiment.run_steady majority_scenario in
  let with_metrics, registry = Experiment.run_steady_metrics majority_scenario in
  let metrics_identical = plain = with_metrics in
  let metric_names = Metrics.names registry in
  let required_metrics =
    [ "logger.replicate"; "logger.quorum_wait"; "net.link_delay"; "replica.drain" ]
  in
  let missing_metrics =
    List.filter (fun n -> not (List.mem n metric_names)) required_metrics
  in
  Printf.printf
    "replication: quorum determinism: metrics-on bit-identical: %b; spans \
     recorded: %s\n%!"
    metrics_identical
    (String.concat ", "
       (List.filter (fun n -> List.mem n metric_names) required_metrics));

  let report =
    Obj
      [
        ("pr", Num 7.);
        ("harness", Str "replication.exe --quorum");
        ("quick", Bool quick);
        ("jobs", Num (float_of_int jobs));
        ( "pair_sweep",
          Obj
            [
              ("replicas", Num 3.);
              ("quorum", Num 2.);
              ("result", pair_sweep_json pairs);
              ("seconds", Num pairs_s);
              ("parallel_bit_identical", Bool pairs_identical);
            ] );
        ( "quorum_one_control",
          Obj
            [
              ("replicas", Num 3.);
              ("quorum", Num 1.);
              ("result", pair_sweep_json control);
              ("seconds", Num control_s);
            ] );
        ( "quorum_grid",
          Obj
            [
              ("rtts_us", Arr (List.map (fun r -> Num (float_of_int r)) rtts_us));
              ("quorums", Arr (List.map (fun k -> Num (float_of_int k)) ks));
              ("seconds", Num grid_s);
              ("cells", Arr (List.map grid_json grid));
            ] );
        ( "determinism",
          Obj
            [
              ("metrics_bit_identical", Bool metrics_identical);
              ("pair_sweep_parallel_bit_identical", Bool pairs_identical);
              ("metrics_missing", Arr (List.map (fun n -> Str n) missing_metrics));
            ] );
        (* PR 8 reference point: the multi-node pair sweeps replay every
           pair over the page-granular COW media store — writes blit
           into owned 4 KiB pages instead of allocating per-sector
           strings — so these wall-clocks are the ones EXPERIMENTS.md
           quotes for the engine-scale comparison. *)
        ( "bench_pr8",
          Obj
            [
              ("media", Str "cow-pages");
              ("pair_sweep_seconds", Num pairs_s);
              ("pair_points", Num (float_of_int pairs.Crash_surface.pr_points));
              ("control_seconds", Num control_s);
              ( "control_points",
                Num (float_of_int control.Crash_surface.pr_points) );
            ] );
      ]
  in
  let text = Json.to_string report in
  let oc = open_out output in
  output_string oc text;
  close_out oc;
  Printf.printf "replication: wrote %s\n%!" output;

  if check then begin
    (match Json.of_string text with
    | exception Json.Parse_error msg ->
        fail (Printf.sprintf "report is not valid JSON: %s" msg)
    | Obj _ -> ()
    | _ -> fail "report is not a JSON object");
    if pairs.Crash_surface.pr_breaks <> 0 then
      fail
        (Printf.sprintf
           "quorum(3,2) pair sweep found %d contract breaks (want 0)"
           pairs.Crash_surface.pr_breaks);
    if pairs.Crash_surface.pr_lost_total <> 0 then
      fail "quorum(3,2) pair sweep lost quorum-acked commits (want 0)";
    if pairs.Crash_surface.pr_points < (if quick then 12 else 80) then
      fail
        (Printf.sprintf "pair sweep explored only %d points"
           pairs.Crash_surface.pr_points);
    List.iter
      (fun (s : Crash_surface.pair_summary) ->
        if s.Crash_surface.ps_points < 1 then
          fail
            (Printf.sprintf "schedule %s ran no points"
               (Crash_surface.pair_schedule_name s.Crash_surface.ps_schedule)))
      pairs.Crash_surface.pr_schedules;
    if List.length pairs.Crash_surface.pr_schedules <> 4 then
      fail "pair sweep did not cover all four schedules";
    if
      List.exists
        (fun v ->
          (not v.Crash_surface.pv_election_quorate)
          || v.Crash_surface.pv_elected < 0)
        pairs.Crash_surface.pr_verdicts
    then fail "a majority-quorum recovery election failed to reach its quorum";
    if not pairs_identical then
      fail "pair sweep differs between jobs=1 and jobs=4";
    if control.Crash_surface.pr_lost_total < 1 then
      fail
        "quorum-1 control lost nothing to the crash pairs (teeth are \
         missing: the sweep cannot see under-replication)";
    if not control_non_quorate then
      fail "quorum-1 control elections were all quorate (want stalls)";
    List.iter
      (fun ((k, rtt_us), (r : Experiment.steady_result)) ->
        if r.Experiment.committed_in_window <= 0 then
          fail
            (Printf.sprintf "quorum grid cell committed nothing (k=%d, rtt=%dus)"
               k rtt_us))
      grid;
    (* Physics: a k = 3 commit waits for the slowest replica's round
       trip, a k = 1 commit for the fastest. *)
    let p50_of k rtt_us =
      match
        List.find_opt (fun ((k', rtt'), _) -> k' = k && rtt' = rtt_us) grid
      with
      | Some (_, r) -> r.Experiment.latency_p50_us
      | None -> nan
    in
    let top_rtt = List.fold_left max 0 rtts_us in
    let k1_p50 = p50_of 1 top_rtt and k3_p50 = p50_of 3 top_rtt in
    if not (k3_p50 > k1_p50) then
      fail
        (Printf.sprintf
           "quorum-3 p50 (%.0f us) should exceed quorum-1 p50 (%.0f us) at \
            %d us RTT"
           k3_p50 k1_p50 top_rtt);
    if not metrics_identical then
      fail "metrics recording perturbed the quorum steady run";
    if missing_metrics <> [] then
      fail
        (Printf.sprintf "quorum spans missing from the registry: %s"
           (String.concat ", " missing_metrics));
    match !failures with
    | [] -> print_endline "replication: quorum check OK"
    | msgs ->
        List.iter
          (fun m -> Printf.eprintf "replication: CHECK FAILED: %s\n" m)
          msgs;
        exit 1
  end
  else
    match !failures with
    | [] -> ()
    | msgs ->
        List.iter (fun m -> Printf.eprintf "replication: WARNING: %s\n" m) msgs

let usage () =
  print_endline
    "usage: replication.exe [--quick] [--check] [--quorum] [--jobs N] [--output PATH]";
  exit 2

let () =
  let quick = ref false in
  let check = ref false in
  let quorum = ref false in
  let jobs = ref (Parallel.default_jobs ()) in
  let output = ref "" in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest -> quick := true; parse rest
    | "--check" :: rest -> check := true; parse rest
    | "--quorum" :: rest -> quorum := true; parse rest
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n >= 1 -> jobs := n
        | _ -> usage ());
        parse rest
    | "--output" :: path :: rest -> output := path; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !output = "" then
    output := if !quorum then "BENCH_PR7.json" else "BENCH_PR5.json";
  if !quorum then begin
    quorum_main ~quick:!quick ~check:!check ~jobs:!jobs ~output:!output;
    exit 0
  end;
  let quick = !quick and jobs = !jobs in
  let failures = ref [] in
  let fail msg = failures := msg :: !failures in

  (* -- tab7: machine loss, local vs replicated ------------------------- *)
  (* Local RapiLog: the journal sweep covers the surface cheaply (every
     boundary when not quick — the statement is about the whole
     surface, not a sample). *)
  let local_scenario =
    { (base_scenario ~quick) with Scenario.mode = Scenario.Rapilog }
  in
  let local_config = surface_config ~quick local_scenario in
  let local_boundaries, local_stride =
    if quick then autostride local_config ~target:60 else (0, 1)
  in
  let local_config = { local_config with Crash_surface.stride = local_stride } in
  let t0 = Unix.gettimeofday () in
  let local = Crash_surface.sweep_journal ~jobs local_config in
  let local_s = Unix.gettimeofday () -. t0 in
  ignore local_boundaries;
  Printf.printf
    "replication: machine-loss local rapilog: %d/%d boundaries, %d contract \
     breaks, %d acked commits lost (%.2fs)\n%!"
    local.Crash_surface.r_explored local.Crash_surface.r_total_boundaries
    local.Crash_surface.r_contract_breaks local.Crash_surface.r_lost_total
    local_s;

  (* Replicated, replica-ack (the rapilog-replicated preset): every
     explored boundary must uphold the contract. Full replay per point —
     the sweep actually runs the network, the replica and the merged
     recovery. *)
  let repl_scenario = replicated_scenario ~quick ~ack:(Some 1) ~rtt_us:50 in
  let repl_config = surface_config ~quick repl_scenario in
  let repl_boundaries, repl_stride =
    autostride repl_config ~target:(if quick then 24 else 400)
  in
  let repl_config = { repl_config with Crash_surface.stride = repl_stride } in
  Printf.printf
    "replication: replicated surface has %d boundaries, stride %d...\n%!"
    repl_boundaries repl_stride;
  let t1 = Unix.gettimeofday () in
  let replicated = Crash_surface.sweep ~jobs:1 repl_config in
  let replicated_s = Unix.gettimeofday () -. t1 in
  let replicated_parallel = Crash_surface.sweep ~jobs:4 repl_config in
  let sweep_identical = replicated = replicated_parallel in
  Printf.printf
    "replication: machine-loss replica-ack: %d points, %d contract breaks, %d \
     lost (%.2fs); parallel bit-identical: %b\n%!"
    replicated.Crash_surface.r_explored
    replicated.Crash_surface.r_contract_breaks
    replicated.Crash_surface.r_lost_total replicated_s sweep_identical;

  (* -- fig12: throughput/latency vs RTT, three policies, two devices --- *)
  let rtts_us = if quick then [ 50; 1000 ] else [ 0; 50; 200; 1000; 4000 ] in
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
                      {
                        (replicated_scenario ~quick ~ack ~rtt_us) with
                        Scenario.device;
                        clients;
                      } ))
                  policies)
              rtts_us)
          client_counts)
      devices
  in
  let t2 = Unix.gettimeofday () in
  let results = Experiment.run_steady_batch ~jobs (List.map snd keys) in
  let fig12_s = Unix.gettimeofday () -. t2 in
  let tagged = List.combine (List.map fst keys) results in
  let cell_json
      ((device_name, clients, rtt_us, policy), (r : Experiment.steady_result)) =
    Obj
      [
        ("device", Str device_name);
        ("clients", Num (float_of_int clients));
        ("rtt_us", Num (float_of_int rtt_us));
        ("policy", Str policy);
        ("throughput_txn_s", Num r.Experiment.throughput);
        ("p50_us", Num r.Experiment.latency_p50_us);
        ("p99_us", Num r.Experiment.latency_p99_us);
        ("committed", Num (float_of_int r.Experiment.committed_in_window));
      ]
  in
  Printf.printf "replication: fig12 grid: %d cells (%.2fs)\n%!"
    (List.length tagged) fig12_s;

  (* -- determinism: metrics recording must not perturb a replicated run *)
  let plain = Experiment.run_steady repl_scenario in
  let with_metrics, registry = Experiment.run_steady_metrics repl_scenario in
  let metrics_identical = plain = with_metrics in
  let metric_names = Metrics.names registry in
  let required_metrics =
    [ "logger.replicate"; "logger.quorum_wait"; "net.link_delay"; "replica.drain" ]
  in
  let missing_metrics =
    List.filter (fun n -> not (List.mem n metric_names)) required_metrics
  in
  Printf.printf
    "replication: determinism: metrics-on bit-identical: %b; spans recorded: %s\n%!"
    metrics_identical
    (String.concat ", " (List.filter (fun n -> List.mem n metric_names) required_metrics));

  let report =
    Obj
      [
        ("pr", Num 5.);
        ("harness", Str "replication.exe");
        ("quick", Bool quick);
        ("jobs", Num (float_of_int jobs));
        ( "tab7_machine_loss",
          Obj
            [
              ("local", sweep_json ~label:"rapilog" local);
              ("local_seconds", Num local_s);
              ("replicated", sweep_json ~label:"rapilog-replicated" replicated);
              ("replicated_seconds", Num replicated_s);
              ("replicated_parallel_bit_identical", Bool sweep_identical);
            ] );
        ( "fig12_replication",
          Obj
            [
              ("rtts_us", Arr (List.map (fun r -> Num (float_of_int r)) rtts_us));
              ("policies", Arr (List.map (fun (p, _) -> Str p) policies));
              ("devices", Arr (List.map (fun (n, _) -> Str n) devices));
              ( "clients",
                Arr (List.map (fun c -> Num (float_of_int c)) client_counts) );
              ("seconds", Num fig12_s);
              ("cells", Arr (List.map cell_json tagged));
            ] );
        ( "determinism",
          Obj
            [
              ("metrics_bit_identical", Bool metrics_identical);
              ("sweep_parallel_bit_identical", Bool sweep_identical);
              ( "metrics_missing",
                Arr (List.map (fun n -> Str n) missing_metrics) );
            ] );
      ]
  in
  let text = Json.to_string report in
  let oc = open_out !output in
  output_string oc text;
  close_out oc;
  Printf.printf "replication: wrote %s\n%!" !output;

  if !check then begin
    (match Json.of_string text with
    | exception Json.Parse_error msg ->
        fail (Printf.sprintf "report is not valid JSON: %s" msg)
    | Obj _ -> ()
    | _ -> fail "report is not a JSON object");
    if replicated.Crash_surface.r_contract_breaks <> 0 then
      fail
        (Printf.sprintf
           "replica-ack machine-loss sweep found %d contract breaks (want 0)"
           replicated.Crash_surface.r_contract_breaks);
    if replicated.Crash_surface.r_lost_total <> 0 then
      fail "replica-ack machine-loss sweep lost acked commits (want 0)";
    if replicated.Crash_surface.r_explored < (if quick then 8 else 100) then
      fail
        (Printf.sprintf "replicated sweep explored only %d points"
           replicated.Crash_surface.r_explored);
    if local.Crash_surface.r_contract_breaks <> local.Crash_surface.r_explored
    then
      fail
        (Printf.sprintf
           "local rapilog broke its contract at %d of %d machine-loss \
            boundaries (want every one: the sweep must see the failure it \
            claims to cover)"
           local.Crash_surface.r_contract_breaks local.Crash_surface.r_explored);
    if local.Crash_surface.r_explored < (if quick then 20 else 500) then
      fail
        (Printf.sprintf "local sweep explored only %d points"
           local.Crash_surface.r_explored);
    if not sweep_identical then
      fail "replicated sweep differs between jobs=1 and jobs=4";
    if not metrics_identical then
      fail "metrics recording perturbed the replicated steady run";
    if missing_metrics <> [] then
      fail
        (Printf.sprintf "replication spans missing from the registry: %s"
           (String.concat ", " missing_metrics));
    List.iter
      (fun ((device_name, clients, rtt_us, policy), (r : Experiment.steady_result)) ->
        if r.Experiment.committed_in_window <= 0 then
          fail
            (Printf.sprintf
               "fig12 cell committed nothing (%s, %d clients, %d us, %s)"
               device_name clients rtt_us policy))
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
       over local. Four clients convoy behind the serialised log force —
       a commit waits out the force in flight, then its own — so they
       pay between one and two. Local and async-replica do not see the
       network at all; and RapiLog acks from the buffer, so the device
       leaves the commit path. *)
    let base_rtt = List.hd rtts_us in
    List.iter
      (fun (device_name, _) ->
        List.iter
          (fun clients ->
            List.iter
              (fun rtt_us ->
                let local = p50 device_name clients rtt_us "local" in
                let ack = p50 device_name clients rtt_us "replica-ack" in
                let rtt = float_of_int rtt_us in
                let lo, hi =
                  if clients = 1 then (local +. rtt, local +. rtt)
                  else (local +. rtt, local +. (2. *. rtt))
                in
                if ack < lo -. 1. || ack > hi +. 1. then
                  fail
                    (Printf.sprintf
                       "%s, %d clients, %d us RTT: replica-ack p50 %.1f us \
                        outside [%.1f, %.1f] us, local p50 %.1f us plus the \
                        round trips it must pay (want within 1 us)"
                       device_name clients rtt_us ack lo hi local);
                List.iter
                  (fun policy ->
                    if
                      cell device_name clients rtt_us policy
                      <> cell device_name clients base_rtt policy
                    then
                      fail
                        (Printf.sprintf
                           "%s, %d clients, %s: result moves with RTT (%d vs \
                            %d us)"
                           device_name clients policy rtt_us base_rtt))
                  [ "local"; "async-replica" ])
              rtts_us)
          client_counts)
      devices;
    List.iter
      (fun ((device_name, clients, rtt_us, policy), r) ->
        if device_name = "hdd" && cell "ssd" clients rtt_us policy <> shape r
        then
          fail
            (Printf.sprintf "fig12 hdd and ssd cells differ (%d clients, %d us, %s)"
               clients rtt_us policy))
      tagged;
    match !failures with
    | [] -> print_endline "replication: check OK"
    | msgs ->
        List.iter
          (fun m -> Printf.eprintf "replication: CHECK FAILED: %s\n" m)
          msgs;
        exit 1
  end
  else
    match !failures with
    | [] -> ()
    | msgs ->
        List.iter (fun m -> Printf.eprintf "replication: WARNING: %s\n" m) msgs
