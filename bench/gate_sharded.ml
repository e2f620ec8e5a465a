(* sharded: the gate of RapiLog-S, the sharded multi-tenant logger
   tier. The claims, with teeth:

   - scale: a many-tenant open-loop cell on 8 shards (10k tenants and
     100k clients in the full run) against a single-shard control
     carrying the identical load. The control's aggregate byte rate
     deliberately exceeds one 7200 rpm disk's streaming bandwidth, so
     its p99 blows up under backpressure; the sharded tier keeps every
     shard's rate well under the disk and its p99 must beat the
     control's — that asymmetry is the scale argument — and the
     per-tenant audit must find zero contract breaks on both cells.
   - noisy-neighbor: extra clients overload one hot tenant's shard.
     Latency pain must stay confined to the hot shard (its p99 above
     every other shard's) and durability must not degrade anywhere —
     overload shows up as queue wait, never as a lost ack.
   - rebalance: a mid-run registry split moves half a shard's buckets
     to another shard while traffic flows; every tenant's recovered
     prefix must still be complete after the move.
   - crash sweep: the full-replay crash-surface sweep over a sharded
     scenario (os-crash, power-cut, tight power-cut at every strided
     event boundary) must hold every per-tenant contract at every
     explored point. The journal engine models a single trusted logger
     and the tier runs S of them, so this sweep replays.
   - determinism: the cell grid must be digest-identical across worker
     counts, and a cell run with Desim.Metrics recording on
     digest-identical to one with it off, populating the shard.*
     registry entries. *)

open Desim
open Harness
open Harness.Json

let shards = 8

(* -- the cell grid ----------------------------------------------------- *)

let scale_tier ~quick ~shards =
  let tenants = if quick then 200 else 10_000 in
  {
    Shard.Tier.default_config with
    Shard.Tier.shards;
    tenants;
    clients = 10 * tenants;
    mean_interval = (if quick then Time.ms 8 else Time.ms 100);
    payload_bytes = (if quick then 1024 else 128);
    horizon = (if quick then Time.ms 60 else Time.ms 150);
  }

let cell ?(fault = Shard.Cell.no_fault) name seed tier =
  { Shard.Cell.c_name = name; c_tier = tier; c_seed = seed; c_fault = fault }

let noisy_cell ~quick =
  cell "noisy-neighbor" 90_0902L
    {
      Shard.Tier.default_config with
      Shard.Tier.shards = 4;
      tenants = 64;
      clients = 128;
      mean_interval = Time.ms 4;
      payload_bytes = 128;
      horizon = (if quick then Time.ms 60 else Time.ms 150);
      hot_tenant = 1;
      hot_clients = 64;
      hot_interval = Time.us 200;
    }

let cell_grid ~quick =
  [
    cell "scale-sharded" 90_0901L (scale_tier ~quick ~shards);
    cell "scale-control" 90_0901L (scale_tier ~quick ~shards:1);
    noisy_cell ~quick;
    cell "rebalance-split" 90_0903L
      ~fault:
        {
          Shard.Cell.no_fault with
          Shard.Cell.f_split_at = Some ((if quick then Time.ms 40 else Time.ms 100), 0, 1);
        }
      {
        Shard.Tier.default_config with
        Shard.Tier.shards = 2;
        tenants = 64;
        clients = 256;
        mean_interval = Time.ms 2;
        payload_bytes = 128;
        horizon = (if quick then Time.ms 80 else Time.ms 200);
      };
  ]

let cell_json (r : Shard.Cell.result) =
  let s = r.Shard.Cell.r_stats in
  let a = r.Shard.Cell.r_audit in
  Obj
    [
      ("name", Str r.Shard.Cell.r_name);
      ("seed", Num (Int64.to_float r.Shard.Cell.r_seed));
      ("submitted", Gate.num_int r.Shard.Cell.r_submitted);
      ("acked", Gate.num_int r.Shard.Cell.r_acked);
      ("p50_us", Num s.Shard.Tier.st_p50_us);
      ("p99_us", Num s.Shard.Tier.st_p99_us);
      ("shard_acked", Arr (Array.to_list (Array.map Gate.num_int s.Shard.Tier.st_shard_acked)));
      ("shard_p99_us", Arr (Array.to_list (Array.map (fun v -> Num v) s.Shard.Tier.st_shard_p99_us)));
      ("active_tenants", Gate.num_int s.Shard.Tier.st_active_tenants);
      ("tenant_p99_med_us", Num s.Shard.Tier.st_tenant_p99_med_us);
      ("tenant_p99_max_us", Num s.Shard.Tier.st_tenant_p99_max_us);
      ("recovered", Gate.num_int a.Shard.Recover.a_recovered);
      ("lost", Gate.num_int a.Shard.Recover.a_lost);
      ("extra", Gate.num_int a.Shard.Recover.a_extra);
      ("tenant_breaks", Gate.num_int a.Shard.Recover.a_breaks);
      ("min_prefix_ratio", Num a.Shard.Recover.a_min_prefix_ratio);
      ("buckets_moved", Gate.num_int r.Shard.Cell.r_buckets_moved);
      ("events", Gate.num_int r.Shard.Cell.r_events);
      ("sim_clock_ms", Num (float_of_int r.Shard.Cell.r_clock_ns /. 1e6));
    ]

(* -- the sharded crash sweep ------------------------------------------- *)

let sweep_scenario ~quick =
  {
    Scenario.default with
    Scenario.mode = Scenario.Rapilog_sharded;
    workload =
      Scenario.Micro
        {
          Workload.Microbench.default_config with
          Workload.Microbench.keys = 64;
          value_bytes = 32;
        };
    clients = 2;
    seed = 90_3301L;
    warmup = Time.ms 1;
    duration = (if quick then Time.ms 10 else Time.ms 30);
    shard =
      {
        Shard.Tier.default_config with
        Shard.Tier.shards = 2;
        tenants = 8;
        clients = 12;
        mean_interval = Time.ms 1;
        payload_bytes = 96;
      };
  }

let gate (g : Gate.t) =
  let quick = g.Gate.quick in
  let digests = List.map Shard.Cell.digest in
  let grid =
    Gate.serial_vs_parallel
      ~same:(fun a b -> digests a = digests b)
      (fun ~jobs -> Parallel.map ~jobs Shard.Cell.run (cell_grid ~quick))
  in
  let cells = grid.Gate.serial in
  let find name = List.find (fun r -> r.Shard.Cell.r_name = name) cells in
  let sharded = find "scale-sharded" and control = find "scale-control" in
  let noisy = find "noisy-neighbor" and rebalance = find "rebalance-split" in
  List.iter
    (fun (r : Shard.Cell.result) ->
      let s = r.Shard.Cell.r_stats and a = r.Shard.Cell.r_audit in
      Printf.printf
        "sharded: %-16s %7d submitted, %7d acked, p99 %8.0f us, tenant-p99 med %8.0f \
         max %8.0f us, %d active tenants, %d lost, %d breaks\n%!"
        r.Shard.Cell.r_name r.Shard.Cell.r_submitted r.Shard.Cell.r_acked
        s.Shard.Tier.st_p99_us s.Shard.Tier.st_tenant_p99_med_us
        s.Shard.Tier.st_tenant_p99_max_us s.Shard.Tier.st_active_tenants
        a.Shard.Recover.a_lost a.Shard.Recover.a_breaks;
      (* Per-tenant contracts: nothing acknowledged may be missing from
         any cell's merged per-shard recovery. *)
      Gate.check g (r.Shard.Cell.r_name ^ ".tenants_whole")
        (a.Shard.Recover.a_lost = 0 && a.Shard.Recover.a_breaks = 0)
        (Printf.sprintf "%d tenant entries lost across %d tenants (want 0)"
           a.Shard.Recover.a_lost a.Shard.Recover.a_breaks);
      Gate.check g (r.Shard.Cell.r_name ^ ".acked") (r.Shard.Cell.r_acked > 0)
        "acknowledged nothing")
    cells;
  Printf.printf
    "sharded: grid of %d cells: jobs=1 %.2fs, parallel %.2fs, digest-identical: %b\n%!"
    (List.length cells) grid.Gate.serial_s grid.Gate.parallel_s grid.Gate.identical;
  Gate.check g "cells.parallel_identical" grid.Gate.identical
    "cell grid differs between worker counts";

  (* The overload arithmetic behind the control cell: its aggregate
     arrival byte rate (encoded Update+Commit pairs) must exceed one
     disk's streaming bandwidth, while the 8-shard tier's per-shard
     share stays well under — otherwise the p99 comparison proves
     nothing about sharding. *)
  let tier = scale_tier ~quick ~shards in
  let pair_bytes =
    let txid = Rapilog.Tenant.pack ~tenant:1 ~seq:1 in
    let payload = String.make tier.Shard.Tier.payload_bytes 's' in
    Dbms.Log_record.encoded_size
      (Dbms.Log_record.Update { txid; key = 1; before = ""; after = payload })
    + Dbms.Log_record.encoded_size (Dbms.Log_record.Commit { txid })
  in
  let arrival_rate =
    float_of_int tier.Shard.Tier.clients /. Time.span_to_float_sec tier.Shard.Tier.mean_interval
  in
  let aggregate_mb_s = arrival_rate *. float_of_int pair_bytes /. 1e6 in
  let disk_mb_s = Scenario.hdd_streaming_bandwidth Storage.Hdd.default_7200rpm /. 1e6 in
  let per_shard_mb_s = aggregate_mb_s /. float_of_int shards in
  Printf.printf
    "sharded: offered load %.1f MB/s aggregate (%.1f MB/s per shard of %d) vs %.1f \
     MB/s disk streaming bandwidth\n%!"
    aggregate_mb_s per_shard_mb_s shards disk_mb_s;
  (* Scale: every tenant active, the control genuinely overloaded, and
     the sharded p99 below the single-shard control's. *)
  let active = sharded.Shard.Cell.r_stats.Shard.Tier.st_active_tenants in
  Gate.check g "scale.tenants_active" (active >= tier.Shard.Tier.tenants)
    (Printf.sprintf "scale-sharded: only %d of %d tenants saw an ack" active
       tier.Shard.Tier.tenants);
  Gate.check g "scale.control_overloaded" (aggregate_mb_s > disk_mb_s)
    (Printf.sprintf
       "control cell is not overloaded (%.1f MB/s offered <= %.1f MB/s disk): the p99 \
        comparison proves nothing"
       aggregate_mb_s disk_mb_s);
  Gate.check g "scale.shards_unloaded" (per_shard_mb_s < disk_mb_s)
    (Printf.sprintf "sharded cell is overloaded per shard (%.1f MB/s >= %.1f MB/s)"
       per_shard_mb_s disk_mb_s);
  let sharded_p99 = sharded.Shard.Cell.r_stats.Shard.Tier.st_p99_us in
  let control_p99 = control.Shard.Cell.r_stats.Shard.Tier.st_p99_us in
  Gate.check g "scale.p99" (sharded_p99 < control_p99)
    (Printf.sprintf "sharded p99 %.0f us regressed vs single-shard control %.0f us"
       sharded_p99 control_p99);
  (* Noisy neighbor: the hot shard hurts, the others do not. *)
  let ns = noisy.Shard.Cell.r_stats in
  let hot = ref 0 in
  Array.iteri
    (fun i acked -> if acked > ns.Shard.Tier.st_shard_acked.(!hot) then hot := i)
    ns.Shard.Tier.st_shard_acked;
  let hot_p99 = ns.Shard.Tier.st_shard_p99_us.(!hot) in
  Array.iteri
    (fun i p99 ->
      if i <> !hot then
        Gate.check g
          (Printf.sprintf "noisy-neighbor.confined/%d" i)
          (p99 < hot_p99)
          (Printf.sprintf
             "shard %d p99 %.0f us not below hot shard %d p99 %.0f us — overload leaked \
              across shards"
             i p99 !hot hot_p99))
    ns.Shard.Tier.st_shard_p99_us;
  (* Rebalance: the split actually moved buckets, and hurt no tenant. *)
  Gate.check g "rebalance.moved" (rebalance.Shard.Cell.r_buckets_moved >= 1)
    "rebalance-split moved no buckets";
  let prefix = rebalance.Shard.Cell.r_audit.Shard.Recover.a_min_prefix_ratio in
  Gate.check g "rebalance.prefixes_whole" (prefix >= 1.0)
    (Printf.sprintf "a tenant's recovered prefix covers only %.2f of its submissions" prefix);

  let determinism =
    Gate.metrics_identity g "determinism"
      ~same:(fun a b -> Shard.Cell.digest a = Shard.Cell.digest b)
      ~required:[ "shard.append_us"; "shard.submitted"; "shard.acked"; "shard.tenant_p99_us" ]
      (fun () -> Shard.Cell.run (noisy_cell ~quick))
  in

  (* -- the sharded crash-surface sweep --------------------------------- *)
  let surface =
    Gate.autostride g
      (Gate.surface (sweep_scenario ~quick) ~length:(if quick then Time.ms 3 else Time.ms 12))
      ~target:(if quick then 9 else 36)
  in
  let sweep, sweep_s = Gate.timed (fun () -> Crash_surface.sweep surface) in
  let sum f = List.fold_left (fun acc v -> acc + f v) 0 sweep.Crash_surface.r_verdicts in
  let tenant_acked = sum (fun v -> v.Crash_surface.v_tenant_acked) in
  let tenant_lost = sum (fun v -> v.Crash_surface.v_tenant_lost) in
  let tenant_breaks = sum (fun v -> v.Crash_surface.v_tenant_breaks) in
  Printf.printf
    "sharded: crash sweep: %d/%d boundaries, %d contract breaks, %d tenant entries \
     lost across %d tenant acks (%.2fs)\n%!"
    sweep.Crash_surface.r_explored sweep.Crash_surface.r_total_boundaries
    sweep.Crash_surface.r_contract_breaks tenant_lost tenant_acked sweep_s;
  (* Per-tenant contracts at every explored boundary, with enough
     boundaries and real tenant traffic to mean it. *)
  Gate.check g "sweep.breaks" (sweep.Crash_surface.r_contract_breaks = 0)
    (Printf.sprintf "crash sweep found %d contract breaks (want 0)"
       sweep.Crash_surface.r_contract_breaks);
  Gate.check g "sweep.tenants_whole" (tenant_lost = 0 && tenant_breaks = 0)
    (Printf.sprintf "crash sweep lost %d tenant entries (%d tenant breaks)" tenant_lost
       tenant_breaks);
  Gate.check g "sweep.tenant_acks" (tenant_acked > 0)
    "crash sweep saw no tenant acks (teeth are missing)";
  Gate.check g "sweep.explored"
    (sweep.Crash_surface.r_explored >= if quick then 6 else 24)
    (Printf.sprintf "crash sweep explored only %d points" sweep.Crash_surface.r_explored);

  Gate.report g "scale"
    (Obj
       [
         ("shards", Gate.num_int shards);
         ("tenants", Gate.num_int tier.Shard.Tier.tenants);
         ("clients", Gate.num_int tier.Shard.Tier.clients);
         ("offered_mb_s", Num aggregate_mb_s);
         ("per_shard_mb_s", Num per_shard_mb_s);
         ("disk_streaming_mb_s", Num disk_mb_s);
         ("sharded", cell_json sharded);
         ("control", cell_json control);
       ]);
  Gate.report g "noisy_neighbor" (cell_json noisy);
  Gate.report g "rebalance" (cell_json rebalance);
  Gate.report g "crash_sweep"
    (Obj [ ("result", Gate.sweep_json sweep); ("seconds", Num sweep_s) ]);
  Gate.report g "determinism"
    (Obj
       ([
          ("cells_jobs_digest_identical", Bool grid.Gate.identical);
          ("serial_seconds", Num grid.Gate.serial_s);
          ("parallel_seconds", Num grid.Gate.parallel_s);
        ]
       @ determinism))

let experiments =
  [
    Gate.experiment ~id:"sharded"
      ~title:"RapiLog-S gate: scale, noisy neighbor, rebalance, sharded crash sweep"
      ~description:"sharded tier beats one shard; per-tenant contracts hold everywhere"
      gate;
  ]
