module Scenario = Harness.Scenario
module Crash_surface = Harness.Crash_surface
module Time = Desim.Time

type fault = { f_kind : Crash_surface.kind; f_rate : float }

let stride_of_rate rate = max 1 (int_of_float (Float.round (1.0 /. rate)))

type key_space =
  | Uniform_keys of int
  | Zipf_keys of { n : int; theta : float }

(* The single consistency check every front end shares: collect every
   violation, not just the first, so one rejection names everything the
   user has to fix. *)
let validate (c : Scenario.config) =
  let errs = ref [] in
  let reject fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  if c.Scenario.clients < 1 then
    reject "clients: %d; need at least 1 (the worker-pool size under open loop)"
      c.Scenario.clients;
  if c.Scenario.data_spindles < 1 then
    reject "spindles: %d; the data volume needs at least one device"
      c.Scenario.data_spindles;
  if c.Scenario.log_streams < 1 then
    reject "log-streams: %d; need at least one WAL stream" c.Scenario.log_streams;
  if c.Scenario.single_disk && c.Scenario.log_streams > 1 then
    reject
      "log-streams: %d on the shared single-disk layout; parallel WAL streams \
       need a dedicated log device (drop single-disk or use one stream)"
      c.Scenario.log_streams;
  if
    c.Scenario.log_streams > 1
    && c.Scenario.profile.Dbms.Engine_profile.commit_policy
       = Dbms.Commit_policy.Serial
  then
    reject
      "log-streams: %d under a Serial commit policy; serialised commits \
       cannot feed parallel streams — pick a Fixed or Adaptive policy"
      c.Scenario.log_streams;
  (match c.Scenario.mode with
  | Scenario.Rapilog_sharded ->
      if c.Scenario.single_disk then
        reject
          "mode rapilog-sharded shares shard 0's dedicated log device with \
           the DBMS; drop single-disk";
      if c.Scenario.log_streams > 1 then
        reject
          "mode rapilog-sharded requires log-streams = 1 (got %d); stream \
           parallelism lives inside the tier (streams_per_shard)"
          c.Scenario.log_streams;
      if c.Scenario.shard.Shard.Tier.shards < 1 then
        reject "shards: %d; the tier needs at least one logger shard"
          c.Scenario.shard.Shard.Tier.shards;
      if c.Scenario.shard.Shard.Tier.tenants < 1 then
        reject "tenants: %d; the tier needs at least one tenant"
          c.Scenario.shard.Shard.Tier.tenants
  | _ ->
      if c.Scenario.shard <> Shard.Tier.default_config then
        reject
          "shard tier configured but mode is %s; the multi-tenant tier only \
           runs under rapilog-sharded"
          (Scenario.mode_name c.Scenario.mode));
  (match c.Scenario.mode with
  | Scenario.Rapilog_quorum ->
      List.iter (reject "quorum: %s")
        (Net.Quorum.config_errors c.Scenario.quorum)
  | _ ->
      if c.Scenario.quorum <> Net.Quorum.default then
        reject
          "quorum cluster configured but mode is %s; quorum replication only \
           runs under rapilog-quorum"
          (Scenario.mode_name c.Scenario.mode));
  (match c.Scenario.workload with
  | Scenario.Micro m ->
      if m.Workload.Microbench.keys < 1 then
        reject "keys: %d; the Micro key space must be non-empty"
          m.Workload.Microbench.keys;
      if m.Workload.Microbench.value_bytes < 1 then
        reject "values: %d bytes; rows need at least one byte"
          m.Workload.Microbench.value_bytes;
      if m.Workload.Microbench.zipf_theta < 0.0 then
        reject "keys: zipf theta %g; must be >= 0 (0 = uniform)"
          m.Workload.Microbench.zipf_theta;
      if m.Workload.Microbench.updates_per_txn < 1 then
        reject "workload: %d updates per txn; need at least one"
          m.Workload.Microbench.updates_per_txn;
      if
        m.Workload.Microbench.delete_fraction < 0.0
        || m.Workload.Microbench.delete_fraction > 1.0
      then
        reject "workload: delete fraction %g; must be in [0, 1]"
          m.Workload.Microbench.delete_fraction
  | Scenario.Ycsb y ->
      if y.Workload.Ycsb_lite.keys < 1 then
        reject "keys: %d; the YCSB key space must be non-empty"
          y.Workload.Ycsb_lite.keys;
      if y.Workload.Ycsb_lite.value_bytes < 1 then
        reject "values: %d bytes; rows need at least one byte"
          y.Workload.Ycsb_lite.value_bytes;
      if y.Workload.Ycsb_lite.zipf_theta < 0.0 then
        reject "keys: zipf theta %g; must be >= 0 (0 = uniform)"
          y.Workload.Ycsb_lite.zipf_theta;
      if
        y.Workload.Ycsb_lite.read_fraction < 0.0
        || y.Workload.Ycsb_lite.read_fraction > 1.0
      then
        reject "read-fraction: %g; must be in [0, 1]"
          y.Workload.Ycsb_lite.read_fraction;
      if y.Workload.Ycsb_lite.ops_per_txn < 1 then
        reject "workload: %d ops per txn; need at least one"
          y.Workload.Ycsb_lite.ops_per_txn
  | Scenario.Tpcc t ->
      if t.Workload.Tpcc_lite.warehouses < 1 then
        reject "workload: %d warehouses; TPC-C-lite needs at least one"
          t.Workload.Tpcc_lite.warehouses;
      if t.Workload.Tpcc_lite.value_bytes < 1 then
        reject "values: %d bytes; rows need at least one byte"
          t.Workload.Tpcc_lite.value_bytes);
  (match c.Scenario.arrival with
  | Workload.Arrival.Closed_loop -> ()
  | Workload.Arrival.Open_loop shape -> (
      (match Workload.Arrival.validate_shape shape with
      | Ok () -> ()
      | Error m -> reject "arrival: %s" m);
      match c.Scenario.churn with
      | None -> ()
      | Some _ ->
          reject
            "churn combined with an open-loop arrival process; open-loop \
             load has no closed-loop clients to gate — drop one axis"));
  (match c.Scenario.churn with
  | None -> ()
  | Some s -> (
      match Workload.Churn.validate s with
      | Ok () -> ()
      | Error m -> reject "churn: %s" m));
  if Time.span_to_ns c.Scenario.warmup < 0 then reject "warmup: must be >= 0";
  if Time.span_to_ns c.Scenario.duration <= 0 then
    reject "duration: the measurement window must be > 0";
  if Time.span_to_ns c.Scenario.think_time < 0 then reject "think: must be >= 0";
  match List.rev !errs with
  | [] -> Ok c
  | errs -> Error (String.concat "; " errs)

let validate_exn c =
  match validate c with
  | Ok c -> c
  | Error msg -> invalid_arg ("scenario: " ^ msg)

let validate_or_exit c =
  match validate c with
  | Ok c -> c
  | Error msg ->
      Printf.eprintf "invalid scenario: %s\n%!" msg;
      exit 2

(* A config is pure data all the way down (no closures anywhere in the
   nested device/logger/net/shard records), so its marshalled bytes are
   a faithful structural fingerprint. *)
let digest (c : Scenario.config) =
  Digest.to_hex (Digest.string (Marshal.to_string c []))

module Builder = struct
  type t = {
    config : Scenario.config;
    faults : fault list;  (* newest first; [faults] reverses *)
    errs : string list;  (* newest first; [errors] reverses *)
  }

  let start ?(base = Scenario.default) () =
    { config = base; faults = []; errs = [] }

  let set f b = { b with config = f b.config }
  let err msg b = { b with errs = msg :: b.errs }
  let mode m = set (fun c -> { c with Scenario.mode = m })
  let device d = set (fun c -> { c with Scenario.device = d })
  let hdd b = device (Scenario.Disk Storage.Hdd.default_7200rpm) b
  let ssd b = device (Scenario.Flash Storage.Ssd.default) b
  let nvme b = device (Scenario.Nvme Storage.Nvme.default) b

  let device_of_name name b =
    match name with
    | "hdd" -> hdd b
    | "ssd" -> ssd b
    | "nvme" -> nvme b
    | _ ->
        err
          (Printf.sprintf
             "device: unknown name %S; the named devices are hdd, ssd and \
              nvme (use the [device] combinator for a custom config)"
             name)
          b

  let profile p = set (fun c -> { c with Scenario.profile = p })

  let commit_policy policy =
    set (fun c ->
        {
          c with
          Scenario.profile =
            Dbms.Engine_profile.with_commit_policy c.Scenario.profile policy;
        })

  let streams n = set (fun c -> { c with Scenario.log_streams = n })
  let clients n = set (fun c -> { c with Scenario.clients = n })
  let think t = set (fun c -> { c with Scenario.think_time = t })
  let seed s = set (fun c -> { c with Scenario.seed = s })
  let warmup t = set (fun c -> { c with Scenario.warmup = t })
  let duration t = set (fun c -> { c with Scenario.duration = t })
  let single_disk v = set (fun c -> { c with Scenario.single_disk = v })
  let spindles n = set (fun c -> { c with Scenario.data_spindles = n })

  let checkpoint interval =
    set (fun c -> { c with Scenario.checkpoint_interval = interval })

  let workload w = set (fun c -> { c with Scenario.workload = w })

  let keys ks b =
    let n, theta =
      match ks with
      | Uniform_keys n -> (n, 0.0)
      | Zipf_keys { n; theta } -> (n, theta)
    in
    match b.config.Scenario.workload with
    | Scenario.Micro m ->
        workload
          (Scenario.Micro
             { m with Workload.Microbench.keys = n; zipf_theta = theta })
          b
    | Scenario.Ycsb y ->
        workload
          (Scenario.Ycsb
             { y with Workload.Ycsb_lite.keys = n; zipf_theta = theta })
          b
    | Scenario.Tpcc _ ->
        err
          "keys: TPC-C-lite derives its key population from the schema \
           (warehouses, districts, customers); select a Micro or Ycsb \
           workload before setting a key space"
          b

  let values bytes b =
    match b.config.Scenario.workload with
    | Scenario.Micro m ->
        workload (Scenario.Micro { m with Workload.Microbench.value_bytes = bytes }) b
    | Scenario.Ycsb y ->
        workload (Scenario.Ycsb { y with Workload.Ycsb_lite.value_bytes = bytes }) b
    | Scenario.Tpcc t ->
        workload (Scenario.Tpcc { t with Workload.Tpcc_lite.value_bytes = bytes }) b

  let read_fraction f b =
    match b.config.Scenario.workload with
    | Scenario.Ycsb y ->
        workload (Scenario.Ycsb { y with Workload.Ycsb_lite.read_fraction = f }) b
    | Scenario.Micro _ ->
        err
          "read-fraction: the Micro workload is update-only; select a Ycsb \
           workload to mix reads in"
          b
    | Scenario.Tpcc _ ->
        err
          "read-fraction: TPC-C-lite's transaction mix is fixed (45/43/4/4/4); \
           select a Ycsb workload to sweep the read fraction"
          b

  let arrival a = set (fun c -> { c with Scenario.arrival = a })
  let open_loop shape b = arrival (Workload.Arrival.Open_loop shape) b
  let churn schedule = set (fun c -> { c with Scenario.churn = schedule })

  let fault ~rate ~kind b =
    if rate <= 0.0 || rate > 1.0 then
      err
        (Printf.sprintf
           "fault: rate %g out of range; the rate is the fraction of crash \
            boundaries to explore and must be in (0, 1]"
           rate)
        b
    else { b with faults = { f_kind = kind; f_rate = rate } :: b.faults }

  let quorum ~replicas ~quorum:q =
    set (fun c ->
        {
          c with
          Scenario.quorum =
            { c.Scenario.quorum with Net.Quorum.replicas; quorum = q };
        })

  let shards n =
    set (fun c ->
        { c with Scenario.shard = { c.Scenario.shard with Shard.Tier.shards = n } })

  let tenants n =
    set (fun c ->
        { c with Scenario.shard = { c.Scenario.shard with Shard.Tier.tenants = n } })

  let peek b = b.config
  let faults b = List.rev b.faults
  let errors b = List.rev b.errs

  let build b =
    match errors b with
    | [] -> validate_exn b.config
    | errs -> invalid_arg ("scenario builder: " ^ String.concat "; " errs)

  let build_or_exit b =
    match errors b with
    | [] -> validate_or_exit b.config
    | errs ->
        Printf.eprintf "invalid scenario: %s\n%!" (String.concat "; " errs);
        exit 2

  let grid ~axes base =
    List.fold_left
      (fun builders axis ->
        List.concat_map (fun b -> List.map (fun f -> f b) axis) builders)
      [ base ] axes
end

(* One preset per mode, plus RapiLog-R: the one-replica quorum cluster
   at k = 1, listed after plain rapilog. *)
let presets =
  List.concat_map
    (fun m ->
      let p = (Scenario.mode_name m, Builder.mode m (Builder.start ())) in
      if m <> Scenario.Rapilog then [ p ]
      else
        [
          p;
          ( "rapilog-replicated",
            Builder.(
              start () |> mode Scenario.Rapilog_quorum
              |> quorum ~replicas:1 ~quorum:1) );
        ])
    Scenario.all_modes

let preset_names = List.map fst presets

let preset name =
  match List.assoc_opt name presets with
  | Some b -> b
  | None ->
      invalid_arg
        (Printf.sprintf "unknown preset %S; the presets are: %s" name
           (String.concat ", " preset_names))

module Workloads = struct
  (* One small update per transaction over a modest key space: the
     commit-latency stress, so arrival shaping shows up undiluted. *)
  let micro_small =
    Scenario.Micro
      {
        Workload.Microbench.default_config with
        Workload.Microbench.keys = 512;
        value_bytes = 64;
      }

  let base_rate = 400.0
  let pool = 16

  let flash_crowd b =
    let c = Builder.peek b in
    b |> Builder.workload micro_small |> Builder.clients pool
    |> Builder.open_loop
         (Workload.Arrival.Flash_crowd
            {
              base = base_rate;
              mult = 8.0;
              at = Time.add_span c.Scenario.warmup (Time.div_span c.Scenario.duration 4);
              decay = Time.div_span c.Scenario.duration 5;
            })

  let diurnal b =
    let c = Builder.peek b in
    let horizon = Time.add_span c.Scenario.warmup c.Scenario.duration in
    b |> Builder.workload micro_small |> Builder.clients pool
    |> Builder.open_loop
         (Workload.Arrival.Diurnal
            { mean = base_rate; amplitude = 0.8; period = Time.div_span horizon 2 })

  let client_churn b =
    let c = Builder.peek b in
    b |> Builder.workload micro_small |> Builder.clients pool
    |> Builder.arrival Workload.Arrival.Closed_loop
    |> Builder.churn
         (Some
            {
              Workload.Churn.period = Time.div_span c.Scenario.duration 2;
              active_fraction = 0.5;
              staggered = true;
            })

  let hot_key b =
    b
    |> Builder.workload
         (Scenario.Ycsb
            {
              Workload.Ycsb_lite.default_config with
              Workload.Ycsb_lite.keys = 4096;
              zipf_theta = 1.2;
              read_fraction = 0.2;
              value_bytes = 64;
            })
    |> Builder.clients pool
    |> Builder.open_loop (Workload.Arrival.Poisson { rate = base_rate })

  let steady_twin b =
    let c = Builder.peek b in
    let b =
      match c.Scenario.arrival with
      | Workload.Arrival.Closed_loop -> b
      | Workload.Arrival.Open_loop shape ->
          let rate =
            match shape with
            | Workload.Arrival.Poisson { rate } -> rate
            | Workload.Arrival.Flash_crowd { base; _ } -> base
            | Workload.Arrival.Diurnal { mean; _ } -> mean
          in
          Builder.open_loop (Workload.Arrival.Poisson { rate }) b
    in
    Builder.churn None b

  let all =
    [
      ("flash-crowd", flash_crowd);
      ("diurnal", diurnal);
      ("client-churn", client_churn);
      ("hot-key", hot_key);
    ]
end
