(* The benchmark's workloads, declared through the scenario DSL. Each is
   a pure function of (size, seed): the seed is the scenario's root seed,
   so every simulated number of a run is exact for a given seed. The
   steady windows hold at least 30,000 write commits, so at least 30
   samples lie beyond p99.9. *)

open Desim
module S = Harness.Scenario
module B = Scen.Builder

type size = Full | Tiny

let pick size full tiny = match size with Full -> full | Tiny -> tiny

(* Small update-only commits on a 7200 rpm disk, offered open loop onto
   16 workers at [rate] Poisson arrivals per second. *)
let micro ~size ~seed ~rate ~window =
  let sd = Int64.of_int seed in
  B.(
    start () |> mode S.Rapilog |> hdd
    |> workload (S.Micro Workload.Microbench.default_config)
    |> clients 16
    |> open_loop (Workload.Arrival.Poisson { rate })
    |> seed sd
    |> warmup (pick size (Time.ms 200) (Time.ms 50))
    |> duration window)

(* The fixed rate latency is reported at: about half of the knee the
   max-rate search finds (36-38k txn/s), and high enough that the
   median commit sees some queueing, so it moves with the seed. *)
let micro_nominal_rate = 20_000.

let micro_hdd_open ~size ~seed =
  micro ~size ~seed ~rate:micro_nominal_rate ~window:(pick size (Time.ms 2_000) (Time.ms 100))

(* The max-rate search's probe at one offered rate. *)
let micro_probe ~size ~seed ~rate =
  micro ~size ~seed ~rate ~window:(pick size (Time.ms 300) (Time.ms 60))

(* RapiLog-Q: three replicas, majority quorum, YCSB-A on a disk. *)
let quorum_ycsb ~size ~seed =
  let sd = Int64.of_int seed in
  B.(
    start () |> mode S.Rapilog_quorum |> hdd |> quorum ~replicas:3 ~quorum:2
    |> workload (S.Ycsb Workload.Ycsb_lite.workload_a)
    |> clients 8 |> think Time.zero_span |> seed sd
    |> warmup (Time.ms 300)
    |> duration (pick size (Time.ms 2_000) (Time.ms 150)))

(* The crash sweep's scenario (rapilog, disk, TPC-C-lite, 8 clients). A
   10 s steady run of the same scenario, long enough for the buffer pool
   to fill and evict to the data disks, gives the commit-path metrics. *)
let sweep_scenario ~size ~seed =
  let sd = Int64.of_int seed in
  B.(
    start () |> mode S.Rapilog |> hdd |> clients 8 |> seed sd
    |> warmup (Time.ms 300)
    |> duration (pick size (Time.sec 10) (Time.ms 150)))

(* Every [stride]-th event boundary of the default 40 ms window, for the
   three single-machine crash kinds. *)
let sweep_config ~size ~seed =
  let scenario = B.build (sweep_scenario ~size ~seed) in
  {
    (Harness.Crash_surface.default scenario) with
    Harness.Crash_surface.stride = pick size 8 32;
  }

let sweep_jobs = 2

let names = [ "micro-hdd-open"; "quorum-ycsb"; "crash-sweep-hdd" ]

let is_sweep name = name = "crash-sweep-hdd"

(* How many times a timed unit runs recovery over its media: about a
   second of recovery per unit. *)
let recoveries name =
  match name with
  | "micro-hdd-open" -> 3
  | "quorum-ycsb" -> 2
  | _ -> 1

let steady name ~size ~seed =
  match name with
  | "micro-hdd-open" -> micro_hdd_open ~size ~seed
  | "quorum-ycsb" -> quorum_ycsb ~size ~seed
  | "crash-sweep-hdd" -> sweep_scenario ~size ~seed
  | other -> invalid_arg ("unknown workload " ^ other)
