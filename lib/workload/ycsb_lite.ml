open Desim

type config = {
  keys : int;
  value_bytes : int;
  zipf_theta : float;
  read_fraction : float;
  ops_per_txn : int;
}

let default_config =
  { keys = 10_000; value_bytes = 100; zipf_theta = 0.99; read_fraction = 0.5; ops_per_txn = 2 }

let workload_a = default_config
let workload_b = { default_config with read_fraction = 0.95 }

type t = {
  config : config;
  rng : Rng.t;
  dist : Key_dist.t;
  mutable reads : int;
  mutable updates : int;
}

let create rng config =
  assert (config.keys > 0 && config.ops_per_txn > 0);
  assert (config.read_fraction >= 0. && config.read_fraction <= 1.);
  let dist =
    if config.zipf_theta = 0. then Key_dist.uniform ~n:config.keys
    else Key_dist.zipf ~n:config.keys ~theta:config.zipf_theta
  in
  { config; rng = Rng.split rng; dist; reads = 0; updates = 0 }

let config t = t.config

let initial_rows t =
  List.init t.config.keys (fun key ->
      (key, Value_gen.make_id t.rng ~prefix:"y" key ~len:t.config.value_bytes))

let next t =
  List.init t.config.ops_per_txn (fun _ ->
      let key = Key_dist.sample t.rng t.dist in
      if Rng.float t.rng < t.config.read_fraction then begin
        t.reads <- t.reads + 1;
        Dbms.Engine.Get { key }
      end
      else begin
        t.updates <- t.updates + 1;
        Dbms.Engine.Put
          {
            key;
            value = Value_gen.make_id t.rng ~prefix:"y" key ~len:t.config.value_bytes;
          }
      end)

let reads_issued t = t.reads
let updates_issued t = t.updates
