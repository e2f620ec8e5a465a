(* rapilog-sharded: the multi-tenant tier's scaling table. One fixed
   open-loop load replayed over 1, 2, 4 and 8 shards. The full run's
   load exceeds one disk's streaming bandwidth for long enough to fill
   the single shard's trusted ring, so that column's p99 blows up while
   the per-tenant audit still finds nothing lost — overload costs
   latency, never durability; the quick run is a smoke-sized load where
   the columns merely tie. The machine-readable version (10k-tenant
   scale cell, noisy-neighbor, rebalance and the sharded crash sweep)
   is the sharded gate → BENCH_sharded.json. *)

open Harness
open Bench_support

let tier ~quick ~shards =
  {
    Shard.Tier.default_config with
    Shard.Tier.shards;
    tenants = 64;
    clients = (if quick then 256 else 512);
    mean_interval = (if quick then Desim.Time.ms 4 else Desim.Time.ms 1);
    payload_bytes = 256;
    horizon = (if quick then Desim.Time.ms 40 else Desim.Time.ms 150);
  }

let cell ~quick ~shards =
  Shard.Cell.run
    {
      Shard.Cell.c_name = Printf.sprintf "table-%d-shards" shards;
      c_tier = tier ~quick ~shards;
      c_seed = 90_0909L;
      c_fault = Shard.Cell.no_fault;
    }

let sharded =
  {
    id = "rapilog-sharded";
    title = "RapiLog-S: multi-tenant tier vs shard count";
    description =
      "rapilog-S multi-tenant tier: one open-loop load over 1..8 shards, per-tenant audit";
    run =
      (fun ~quick ->
        Report.section
          "RapiLog-S: sharded multi-tenant tier — one open-loop load, more \
           shards (64 tenants)";
        Report.table
          ~columns:
            [
              "shards"; "acked"; "p50 us"; "p99 us"; "tenant p99 med";
              "tenant p99 max"; "lost"; "breaks";
            ]
          ~rows:
            (List.map
               (fun shards ->
                 let r = cell ~quick ~shards in
                 let s = r.Shard.Cell.r_stats in
                 let a = r.Shard.Cell.r_audit in
                 [
                   string_of_int shards;
                   string_of_int r.Shard.Cell.r_acked;
                   Printf.sprintf "%.0f" s.Shard.Tier.st_p50_us;
                   Printf.sprintf "%.0f" s.Shard.Tier.st_p99_us;
                   Printf.sprintf "%.0f" s.Shard.Tier.st_tenant_p99_med_us;
                   Printf.sprintf "%.0f" s.Shard.Tier.st_tenant_p99_max_us;
                   string_of_int a.Shard.Recover.a_lost;
                   string_of_int a.Shard.Recover.a_breaks;
                 ])
               [ 1; 2; 4; 8 ]);
        print_newline ())
  }

let experiments = [ sharded ]
