open Desim
open Dbms

type config = {
  warehouses : int;
  items_per_warehouse : int;
  customers_per_district : int;
  value_bytes : int;
}

let default_config =
  { warehouses = 2; items_per_warehouse = 200; customers_per_district = 30; value_bytes = 96 }

type kind = New_order | Payment | Order_status | Delivery | Stock_level

let kind_name = function
  | New_order -> "new-order"
  | Payment -> "payment"
  | Order_status -> "order-status"
  | Delivery -> "delivery"
  | Stock_level -> "stock-level"

let districts_per_warehouse = 10

(* Key-space layout: disjoint bases per table. *)
let warehouse_key w = w
let district_key w d = 1_000_000 + (w * districts_per_warehouse) + d

let customer_key config w d c =
  2_000_000 + ((((w * districts_per_warehouse) + d) * config.customers_per_district) + c)

let stock_key config w i = 10_000_000 + (w * config.items_per_warehouse) + i
let order_key seq = 20_000_000 + seq
let order_line_key seq = 30_000_000 + seq

type t = {
  config : config;
  rng : Rng.t;
  mutable order_seq : int;
  mutable line_seq : int;
  counts : (kind, int) Hashtbl.t;
}

let create rng config =
  assert (config.warehouses > 0 && config.items_per_warehouse > 0);
  assert (config.customers_per_district > 0 && config.value_bytes > 0);
  { config; rng = Rng.split rng; order_seq = 0; line_seq = 0; counts = Hashtbl.create 8 }

let config t = t.config

let value t tag = Value_gen.make t.rng ~tag ~len:t.config.value_bytes
let warehouse_value t w = Value_gen.make_id t.rng ~prefix:"wh:" w ~len:t.config.value_bytes

let district_value t w d =
  Value_gen.make_id2 t.rng ~prefix:"di:" w d ~len:t.config.value_bytes

let initial_rows t =
  let c = t.config in
  let rows = ref [] in
  let add key value = rows := (key, value) :: !rows in
  let len = c.value_bytes in
  for w = 0 to c.warehouses - 1 do
    add (warehouse_key w) (warehouse_value t w);
    for d = 0 to districts_per_warehouse - 1 do
      add (district_key w d) (district_value t w d);
      for cust = 0 to c.customers_per_district - 1 do
        add (customer_key c w d cust) (Value_gen.make_id3 t.rng ~prefix:"cu:" w d cust ~len)
      done
    done;
    for i = 0 to c.items_per_warehouse - 1 do
      add (stock_key c w i) (Value_gen.make_id2 t.rng ~prefix:"st:" w i ~len)
    done
  done;
  List.rev !rows

let pick_warehouse t = Rng.int t.rng t.config.warehouses
let pick_district t = Rng.int t.rng districts_per_warehouse
let pick_customer t = Rng.int t.rng t.config.customers_per_district
let pick_item t = Rng.int t.rng t.config.items_per_warehouse

let new_order t =
  let c = t.config in
  let w = pick_warehouse t and d = pick_district t in
  let cust = pick_customer t in
  let lines = 5 + Rng.int t.rng 11 in
  let ops = ref [] in
  let push op = ops := op :: !ops in
  push (Engine.Get { key = customer_key c w d cust });
  push (Engine.Get { key = district_key w d });
  push (Engine.Put { key = district_key w d; value = district_value t w d });
  t.order_seq <- t.order_seq + 1;
  push (Engine.Put { key = order_key t.order_seq; value = value t "or:" });
  for _ = 1 to lines do
    let item = pick_item t in
    push (Engine.Get { key = stock_key c w item });
    push (Engine.Put { key = stock_key c w item; value = value t "st:" });
    t.line_seq <- t.line_seq + 1;
    push (Engine.Put { key = order_line_key t.line_seq; value = value t "ol:" })
  done;
  List.rev !ops

let payment t =
  let c = t.config in
  let w = pick_warehouse t and d = pick_district t in
  let cust = pick_customer t in
  [
    Engine.Put { key = warehouse_key w; value = warehouse_value t w };
    Engine.Put { key = district_key w d; value = district_value t w d };
    Engine.Get { key = customer_key c w d cust };
    Engine.Put { key = customer_key c w d cust; value = value t "cu:" };
  ]

let order_status t =
  let c = t.config in
  let w = pick_warehouse t and d = pick_district t in
  [
    Engine.Get { key = customer_key c w d (pick_customer t) };
    Engine.Get { key = district_key w d };
    Engine.Get { key = stock_key c w (pick_item t) };
  ]

let delivery t =
  let c = t.config in
  let w = pick_warehouse t in
  let rec updates d acc =
    if d >= districts_per_warehouse then acc
    else
      let cust = pick_customer t in
      updates (d + 1)
        (Engine.Put { key = customer_key c w d cust; value = value t "cu:" } :: acc)
  in
  updates 0 []

let stock_level t =
  let c = t.config in
  let w = pick_warehouse t in
  List.init 5 (fun _ -> Engine.Get { key = stock_key c w (pick_item t) })

let sample_kind t =
  let roll = Rng.int t.rng 100 in
  if roll < 45 then New_order
  else if roll < 88 then Payment
  else if roll < 92 then Order_status
  else if roll < 96 then Delivery
  else Stock_level

let next t =
  let kind = sample_kind t in
  let count = Option.value (Hashtbl.find_opt t.counts kind) ~default:0 in
  Hashtbl.replace t.counts kind (count + 1);
  let ops =
    match kind with
    | New_order -> new_order t
    | Payment -> payment t
    | Order_status -> order_status t
    | Delivery -> delivery t
    | Stock_level -> stock_level t
  in
  (kind, ops)

let mix_counts t =
  List.filter_map
    (fun kind ->
      match Hashtbl.find_opt t.counts kind with
      | Some n -> Some (kind, n)
      | None -> None)
    [ New_order; Payment; Order_status; Delivery; Stock_level ]
