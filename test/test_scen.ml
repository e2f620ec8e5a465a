(* Tests for the scenario-builder DSL (lib/scen) and the open-loop
   workload library it drives (Workload.Arrival, Workload.Churn).

   The DSL's claims are all about identity and purity: presets must be
   digest-identical to the legacy hand-rolled records, combinators on
   distinct axes must commute, a grid must enumerate exactly the
   cartesian product of its axes, and every arrival process must be a
   pure function of (seed, time) whose empirical rate matches its
   closed form. *)

open Desim
open Testu
module B = Scen.Builder
module Scenario = Harness.Scenario

let check_rejects name axis config =
  match Scen.validate config with
  | Ok _ -> Alcotest.failf "%s: expected rejection" name
  | Error msg ->
      if not (contains msg axis) then
        Alcotest.failf "%s: message %S does not mention %S" name msg axis

(* -- presets: DSL == legacy records ------------------------------------ *)

let presets_digest_identical () =
  Alcotest.(check int) "nine presets" 9 (List.length Scen.preset_names);
  List.iter
    (fun name ->
      let legacy =
        match Scenario.mode_of_name name with
        | Some mode -> { Scenario.default with Scenario.mode }
        | None when name = "rapilog-replicated" ->
            {
              Scenario.default with
              Scenario.mode = Scenario.Rapilog_quorum;
              quorum =
                { Scenario.default.Scenario.quorum with Net.Quorum.replicas = 1; quorum = 1 };
            }
        | None -> Alcotest.failf "preset %s is neither a mode nor RapiLog-R" name
      in
      Alcotest.(check string)
        ("preset " ^ name)
        (Scen.digest legacy)
        (Scen.digest (B.build (Scen.preset name))))
    Scen.preset_names

let preset_unknown_rejected () =
  match Scen.preset "floppy-mode" with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "lists valid names" true (contains msg "rapilog")
  | _ -> Alcotest.fail "unknown preset accepted"

(* The bench modules ported to the DSL (bench_support.base_config,
   bench_throughput fig2/fig3, bench_ycsb) must keep producing the
   records they used to hand-roll. These pin the ports by digest. *)
let ported_bench_configs_identical () =
  List.iter
    (fun quick ->
      let w = if quick then Time.ms 200 else Time.ms 400 in
      let d = if quick then Time.ms 800 else Time.sec 2 in
      let legacy_base =
        { Scenario.default with Scenario.warmup = w; duration = d }
      in
      let dsl_base = B.(start () |> warmup w |> duration d |> build) in
      Alcotest.(check string)
        "base_config" (Scen.digest legacy_base) (Scen.digest dsl_base);
      Alcotest.(check string) "fig3 ssd config"
        (Scen.digest
           { legacy_base with Scenario.device = Scenario.Flash Storage.Ssd.default })
        (Scen.digest B.(start ~base:dsl_base () |> ssd |> build));
      List.iter
        (fun engine ->
          Alcotest.(check string)
            ("fig2 profile " ^ engine.Dbms.Engine_profile.name)
            (Scen.digest { legacy_base with Scenario.profile = engine })
            (Scen.digest B.(start ~base:dsl_base () |> profile engine |> build)))
        Dbms.Engine_profile.all;
      List.iter
        (fun fraction ->
          let legacy =
            {
              legacy_base with
              Scenario.mode = Scenario.Rapilog;
              clients = 8;
              workload =
                Scenario.Ycsb
                  {
                    Workload.Ycsb_lite.default_config with
                    Workload.Ycsb_lite.read_fraction = fraction;
                  };
            }
          in
          let dsl =
            B.(
              start ~base:dsl_base ()
              |> mode Scenario.Rapilog |> clients 8
              |> workload (Scenario.Ycsb Workload.Ycsb_lite.default_config)
              |> read_fraction fraction |> build)
          in
          Alcotest.(check string) "fig9 ycsb config" (Scen.digest legacy)
            (Scen.digest dsl))
        [ 0.0; 0.5; 0.95 ])
    [ true; false ]

(* -- combinator laws ---------------------------------------------------- *)

(* Combinators on distinct axes commute: applying them in any order
   yields bit-identical configs. (Combinators on the *same* axis
   overwrite, so order matters there — last write wins, checked
   separately.) *)
let combinators_commute =
  prop "distinct-axis combinators commute" ~count:100
    QCheck2.Gen.(
      tup4 (int_range 1 64) (int_range 1 200) (int_range 1 4)
        (int_range 0 1000))
    (fun (n, ms, s, sd) ->
      let fs =
        [
          B.clients n;
          B.duration (Time.ms ms);
          B.streams s;
          B.seed (Int64.of_int sd);
          B.mode Scenario.Native_sync;
          B.nvme;
        ]
      in
      let apply order =
        Scen.digest (B.peek (List.fold_left (fun b f -> f b) (B.start ()) order))
      in
      apply fs = apply (List.rev fs))

let same_axis_last_write_wins () =
  let b = B.(start () |> clients 3 |> clients 7) in
  Alcotest.(check int) "last write" 7 (B.peek b).Scenario.clients

let grid_size_is_product =
  prop "grid size = product of axis sizes" ~count:100
    QCheck2.Gen.(tup3 (int_range 1 4) (int_range 1 4) (int_range 1 4))
    (fun (a, bn, c) ->
      let axis make n = List.init n (fun i -> make (i + 1)) in
      let grid =
        B.grid
          ~axes:
            [
              axis B.clients a;
              axis (fun i -> B.seed (Int64.of_int i)) bn;
              axis B.streams c;
            ]
          (B.start ())
      in
      List.length grid = a * bn * c)

let grid_is_row_major () =
  let grid =
    B.grid
      ~axes:[ [ B.clients 1; B.clients 2 ]; [ B.seed 7L; B.seed 8L ] ]
      (B.start ())
  in
  let cells =
    List.map
      (fun b ->
        let c = B.peek b in
        (c.Scenario.clients, c.Scenario.seed))
      grid
  in
  Alcotest.(check (list (pair int int64)))
    "first axis slowest"
    [ (1, 7L); (1, 8L); (2, 7L); (2, 8L) ]
    cells

let digest_sensitive_to_every_axis () =
  let base = Scen.digest (B.peek (B.start ())) in
  List.iter
    (fun (axis, f) ->
      if Scen.digest (B.peek (f (B.start ()))) = base then
        Alcotest.failf "axis %s did not change the digest" axis)
    [
      ("clients", B.clients 9);
      ("mode", B.mode Scenario.Async_commit);
      ("device", B.nvme);
      ("seed", B.seed 43L);
      ("streams", B.streams 2);
      ("arrival", B.open_loop (Workload.Arrival.Poisson { rate = 10. }));
      ("churn", B.churn (Some Workload.Churn.default));
    ]

let builder_records_errors () =
  let b = B.(start () |> keys (Uniform_keys 64) |> device_of_name "floppy") in
  Alcotest.(check int) "two errors" 2 (List.length (B.errors b));
  (match B.build b with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "mentions keys" true (contains msg "keys");
      Alcotest.(check bool) "mentions device" true (contains msg "floppy")
  | _ -> Alcotest.fail "build accepted an erroneous pipeline");
  (* fault-schedule entries ride alongside without touching the digest *)
  let faulted =
    B.(start () |> fault ~rate:0.5 ~kind:Harness.Crash_surface.Os_crash)
  in
  Alcotest.(check string) "faults leave config alone"
    (Scen.digest (B.peek (B.start ())))
    (Scen.digest (B.peek faulted));
  Alcotest.(check int) "fault recorded" 1 (List.length (B.faults faulted))

let stride_of_rate_cases () =
  Alcotest.(check int) "rate 1.0" 1 (Scen.stride_of_rate 1.0);
  Alcotest.(check int) "rate 0.5" 2 (Scen.stride_of_rate 0.5);
  Alcotest.(check int) "rate 0.01" 100 (Scen.stride_of_rate 0.01)

(* -- the validator ------------------------------------------------------ *)

let validate_accepts_presets () =
  List.iter
    (fun name ->
      match Scen.validate (B.peek (Scen.preset name)) with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "preset %s rejected: %s" name msg)
    Scen.preset_names;
  (* ... and RapiLog-R's async policy, the one-replica cluster at k = 0. *)
  match
    Scen.validate
      (B.peek (Scen.preset "rapilog-replicated" |> B.quorum ~replicas:1 ~quorum:0))
  with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "k = 0 rejected: %s" msg

let validate_accepts_workload_grid () =
  List.iter
    (fun (wname, shape) ->
      List.iter
        (fun m ->
          let b = B.mode m (B.start () |> shape) in
          match Scen.validate (B.peek b) with
          | Ok _ -> ()
          | Error msg -> Alcotest.failf "%s/%s rejected: %s" wname
                           (Scenario.mode_name m) msg)
        [ Scenario.Rapilog; Scenario.Native_sync ])
    Scen.Workloads.all

let validate_rejections () =
  let d = Scenario.default in
  check_rejects "zero clients" "clients" { d with Scenario.clients = 0 };
  check_rejects "zero streams" "log-streams" { d with Scenario.log_streams = 0 };
  check_rejects "streams on single disk" "single-disk"
    { d with Scenario.single_disk = true; log_streams = 2 };
  check_rejects "streams under serial policy" "Serial"
    {
      d with
      Scenario.log_streams = 2;
      profile =
        Dbms.Engine_profile.with_commit_policy d.Scenario.profile
          Dbms.Commit_policy.Serial;
    };
  check_rejects "shard tier outside sharded mode" "rapilog-sharded"
    {
      d with
      Scenario.shard = { d.Scenario.shard with Shard.Tier.shards = 4 };
    };
  check_rejects "sharded mode on single disk" "single-disk"
    {
      d with
      Scenario.mode = Scenario.Rapilog_sharded;
      single_disk = true;
      data_spindles = 1;
    };
  check_rejects "quorum larger than cluster" "quorum"
    {
      d with
      Scenario.mode = Scenario.Rapilog_quorum;
      quorum = { d.Scenario.quorum with Net.Quorum.quorum = 5 };
    };
  check_rejects "quorum config outside quorum mode" "rapilog-quorum"
    {
      d with
      Scenario.quorum = { d.Scenario.quorum with Net.Quorum.replicas = 5; quorum = 3 };
    };
  check_rejects "lossy quorum link" "link 1"
    {
      d with
      Scenario.mode = Scenario.Rapilog_quorum;
      quorum =
        {
          d.Scenario.quorum with
          Net.Quorum.links =
            [
              Net.Link.default;
              { Net.Link.default with Net.Link.drop_probability = 0.05 };
            ];
        };
    };
  check_rejects "churn under open loop" "open-loop"
    {
      d with
      Scenario.arrival = Workload.Arrival.Open_loop (Workload.Arrival.Poisson { rate = 100. });
      churn = Some Workload.Churn.default;
    };
  check_rejects "malformed arrival shape" "arrival"
    {
      d with
      Scenario.arrival = Workload.Arrival.Open_loop (Workload.Arrival.Poisson { rate = 0. });
    };
  check_rejects "malformed churn schedule" "churn"
    {
      d with
      Scenario.churn =
        Some { Workload.Churn.default with Workload.Churn.active_fraction = 0. };
    };
  check_rejects "read fraction out of range" "read-fraction"
    {
      d with
      Scenario.workload =
        Scenario.Ycsb
          { Workload.Ycsb_lite.default_config with Workload.Ycsb_lite.read_fraction = 1.5 };
    };
  check_rejects "empty key space" "keys"
    {
      d with
      Scenario.workload =
        Scenario.Micro
          { Workload.Microbench.default_config with Workload.Microbench.keys = 0 };
    };
  check_rejects "zero-length window" "duration"
    { d with Scenario.duration = Time.zero_span };
  (* every violation is reported, not just the first *)
  match
    Scen.validate { d with Scenario.clients = 0; log_streams = 0 }
  with
  | Ok _ -> Alcotest.fail "expected rejection"
  | Error msg ->
      Alcotest.(check bool) "both violations reported" true
        (contains msg "clients" && contains msg "log-streams")

(* -- the workload library ----------------------------------------------- *)

let workloads_compose_and_build () =
  List.iter
    (fun (wname, shape) ->
      let config = B.(start () |> shape |> build) in
      match (wname, config.Scenario.arrival, config.Scenario.churn) with
      | "client-churn", Workload.Arrival.Closed_loop, Some _ -> ()
      | "client-churn", _, _ -> Alcotest.fail "churn shape lost its schedule"
      | _, Workload.Arrival.Open_loop _, None -> ()
      | _, _, _ -> Alcotest.failf "%s is not open-loop" wname)
    Scen.Workloads.all

let steady_twin_flattens_shapes () =
  let flash = B.(start () |> Scen.Workloads.flash_crowd) in
  let twin = Scen.Workloads.steady_twin flash in
  (match (B.peek twin).Scenario.arrival with
  | Workload.Arrival.Open_loop (Workload.Arrival.Poisson { rate }) ->
      check_near "twin rate is the flash base" 400.0 rate
  | _ -> Alcotest.fail "flash twin is not steady Poisson");
  let churned = B.(start () |> Scen.Workloads.client_churn) in
  Alcotest.(check bool) "churn twin drops the schedule" true
    ((B.peek (Scen.Workloads.steady_twin churned)).Scenario.churn = None);
  (* hot-key is already steady: its twin is bit-identical *)
  let hot = B.(start () |> Scen.Workloads.hot_key) in
  Alcotest.(check string) "hot-key twin identical"
    (Scen.digest (B.peek hot))
    (Scen.digest (B.peek (Scen.Workloads.steady_twin hot)))

(* -- arrival processes: determinism and closed forms -------------------- *)

let gen_shape =
  QCheck2.Gen.(
    let rate = map (fun r -> float_of_int r) (int_range 50 2000) in
    oneof
      [
        map (fun r -> Workload.Arrival.Poisson { rate = r }) rate;
        map3
          (fun r m (at, decay) ->
            Workload.Arrival.Flash_crowd
              {
                base = r;
                mult = float_of_int m;
                at = Time.ms at;
                decay = Time.ms decay;
              })
          rate (int_range 1 10)
          (pair (int_range 0 500) (int_range 10 400));
        map3
          (fun r a p ->
            Workload.Arrival.Diurnal
              {
                mean = r;
                amplitude = float_of_int a /. 10.0;
                period = Time.ms p;
              })
          rate (int_range 0 10) (int_range 50 1000);
      ])

let arrival_deterministic_in_seed =
  prop "arrival stream is a pure function of (shape, seed)" ~count:60
    QCheck2.Gen.(pair gen_shape (int_range 0 10_000))
    (fun (shape, sd) ->
      let seed = Int64.of_int sd in
      let times () =
        Workload.Arrival.times shape ~seed ~until:(Time.ms 500) ~limit:4000
      in
      List.map Time.span_to_ns (times ()) = List.map Time.span_to_ns (times ()))

let arrival_times_ordered_and_bounded =
  prop "arrival instants are ordered, distinct and inside the horizon"
    ~count:60
    QCheck2.Gen.(pair gen_shape (int_range 0 10_000))
    (fun (shape, sd) ->
      let until = Time.ms 500 in
      let ts =
        Workload.Arrival.times shape ~seed:(Int64.of_int sd) ~until ~limit:4000
      in
      let ns = List.map Time.span_to_ns ts in
      List.for_all (fun t -> t >= 0 && t <= Time.span_to_ns until) ns
      && List.sort_uniq compare ns = ns)

(* The empirical count over a horizon must match the closed-form
   integral of the intensity. The count is Poisson-distributed with
   mean [expected], so a 6-sigma band (plus slack for tiny means) makes
   the property deterministic-in-practice for any generated case. *)
let arrival_empirical_rate_matches_closed_form =
  prop "empirical arrivals match the closed-form mean" ~count:60
    QCheck2.Gen.(pair gen_shape (int_range 0 10_000))
    (fun (shape, sd) ->
      let until = Time.sec 2 in
      let expected = Workload.Arrival.expected_arrivals shape ~until in
      let ts =
        Workload.Arrival.times shape ~seed:(Int64.of_int sd) ~until
          ~limit:(int_of_float expected * 3 + 1000)
      in
      let n = float_of_int (List.length ts) in
      Float.abs (n -. expected) <= (6.0 *. sqrt expected) +. 10.0)

(* expected_arrivals is the integral of rate_at: cross-check the two
   closed forms against each other numerically. *)
let arrival_closed_forms_consistent =
  prop "expected_arrivals integrates rate_at" ~count:60 gen_shape
    (fun shape ->
      let until_ns = 1_500_000_000 in
      let steps = 3_000 in
      let dt = until_ns / steps in
      let rate_at ns = Workload.Arrival.rate_at shape (Time.ns ns) in
      let sum = ref 0.0 in
      for i = 0 to steps - 1 do
        let a = rate_at (i * dt) and b = rate_at (((i + 1) * dt) - 1) in
        sum := !sum +. ((a +. b) /. 2.0 *. (float_of_int dt /. 1e9))
      done;
      let closed =
        Workload.Arrival.expected_arrivals shape ~until:(Time.ns until_ns)
      in
      Float.abs (!sum -. closed) <= (0.02 *. closed) +. 1.0)

let arrival_max_rate_is_envelope =
  prop "max_rate bounds rate_at everywhere" ~count:60 gen_shape (fun shape ->
      let bound = Workload.Arrival.max_rate shape in
      List.for_all
        (fun ms -> Workload.Arrival.rate_at shape (Time.ms ms) <= bound +. 1e-9)
        (List.init 100 (fun i -> i * 17)))

(* -- churn schedules ---------------------------------------------------- *)

let gen_schedule =
  QCheck2.Gen.(
    map3
      (fun p f staggered ->
        {
          Workload.Churn.period = Time.ms p;
          active_fraction = float_of_int f /. 10.0;
          staggered;
        })
      (int_range 10 500) (int_range 1 10) bool)

let churn_until_change_is_next_transition =
  prop "until_change is positive and crosses no transition early" ~count:100
    QCheck2.Gen.(
      tup4 gen_schedule (int_range 1 32) (int_range 0 31) (int_range 0 2_000))
    (fun (schedule, clients, client, now_ms) ->
      let client = client mod clients in
      let now = Time.ms now_ms in
      let here = Workload.Churn.active schedule ~clients ~client ~now in
      let gap = Workload.Churn.until_change schedule ~clients ~client ~now in
      let gap_ns = Time.span_to_ns gap in
      gap_ns > 0
      && List.for_all
           (fun k ->
             let t = Time.ns (Time.span_to_ns now + (gap_ns * k / 8)) in
             Workload.Churn.active schedule ~clients ~client ~now:t = here)
           [ 0; 1; 3; 5; 7 ])

let churn_active_fraction_respected =
  prop "time-averaged activity equals the active fraction" ~count:60
    QCheck2.Gen.(pair gen_schedule (int_range 1 32))
    (fun (schedule, clients) ->
      let period_ns = Time.span_to_ns schedule.Workload.Churn.period in
      let samples = 512 in
      let active_samples = ref 0 in
      for client = 0 to clients - 1 do
        for i = 0 to samples - 1 do
          let now = Time.ns (i * period_ns / samples) in
          if Workload.Churn.active schedule ~clients ~client ~now then
            incr active_samples
        done
      done;
      let measured =
        float_of_int !active_samples /. float_of_int (samples * clients)
      in
      (* sampling a step function on a grid: allow one grid cell of slack *)
      Float.abs (measured -. schedule.Workload.Churn.active_fraction)
      <= (1.0 /. float_of_int samples *. 2.0) +. 0.01)

let suites =
  [
    ( "scen.presets",
      [
        case "nine presets digest-identical to legacy" presets_digest_identical;
        case "unknown preset rejected" preset_unknown_rejected;
        case "ported bench configs digest-identical" ported_bench_configs_identical;
      ] );
    ( "scen.builder",
      [
        combinators_commute;
        case "same-axis last write wins" same_axis_last_write_wins;
        grid_size_is_product;
        case "grid is row-major" grid_is_row_major;
        case "digest sensitive to every axis" digest_sensitive_to_every_axis;
        case "combinator errors accumulate" builder_records_errors;
        case "stride of fault rate" stride_of_rate_cases;
      ] );
    ( "scen.validate",
      [
        case "accepts the presets" validate_accepts_presets;
        case "accepts the workload grid" validate_accepts_workload_grid;
        case "rejects inconsistent axes" validate_rejections;
      ] );
    ( "scen.workloads",
      [
        case "shapes compose and build" workloads_compose_and_build;
        case "steady twins flatten the shapes" steady_twin_flattens_shapes;
      ] );
    ( "workload.arrival",
      [
        arrival_deterministic_in_seed;
        arrival_times_ordered_and_bounded;
        arrival_empirical_rate_matches_closed_form;
        arrival_closed_forms_consistent;
        arrival_max_rate_is_envelope;
      ] );
    ( "workload.churn",
      [
        churn_until_change_is_next_transition;
        churn_active_fraction_respected;
      ] );
  ]
