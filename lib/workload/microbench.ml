open Desim

type config = {
  keys : int;
  value_bytes : int;
  zipf_theta : float;
  updates_per_txn : int;
  delete_fraction : float;
}

let default_config =
  {
    keys = 10_000;
    value_bytes = 128;
    zipf_theta = 0.;
    updates_per_txn = 1;
    delete_fraction = 0.;
  }

type t = { config : config; rng : Rng.t; dist : Key_dist.t }

let create rng config =
  assert (config.keys > 0 && config.value_bytes > 0 && config.updates_per_txn > 0);
  let dist =
    if config.zipf_theta = 0. then Key_dist.uniform ~n:config.keys
    else Key_dist.zipf ~n:config.keys ~theta:config.zipf_theta
  in
  { config; rng = Rng.split rng; dist }

let config t = t.config

let initial_rows t =
  List.init t.config.keys (fun key ->
      (key, Value_gen.make_id t.rng ~prefix:"k" key ~len:t.config.value_bytes))

let next t =
  List.init t.config.updates_per_txn (fun _ ->
      let key = Key_dist.sample t.rng t.dist in
      if t.config.delete_fraction > 0. && Rng.float t.rng < t.config.delete_fraction
      then Dbms.Engine.Delete { key }
      else
        Dbms.Engine.Put
          { key; value = Value_gen.make_id t.rng ~prefix:"k" key ~len:t.config.value_bytes })
