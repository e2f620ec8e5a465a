(* Tests for the workload generators and clients. *)

open Desim
open Testu
open Workload

(* -- Value_gen ---------------------------------------------------------- *)

let value_gen_length_and_tag () =
  let rng = Rng.create 1L in
  let v = Value_gen.make rng ~tag:"cu:1:" ~len:32 in
  Alcotest.(check int) "length" 32 (String.length v);
  Alcotest.(check string) "tag prefix" "cu:1:" (String.sub v 0 5)

let value_gen_tag_truncated () =
  let rng = Rng.create 1L in
  let v = Value_gen.make rng ~tag:"very-long-tag" ~len:4 in
  Alcotest.(check string) "truncated" "very" v

(* The id-tag builders against the formatted tag they replace: same
   bytes and the same draws, cut at short lengths included. *)
let value_gen_id_tags_prop =
  let id =
    QCheck2.Gen.(
      oneof [ int_range (-1_000) 1_000_000; int; oneofl [ 0; -1; max_int; min_int ] ])
  in
  prop "id tags match the formatted tag" ~count:500
    QCheck2.Gen.(tup5 (int_range 1 3) id id id (int_range 1 48))
    (fun (ids, a, b, c, len) ->
      let made, formatted =
        match ids with
        | 1 ->
            ( (fun rng -> Value_gen.make_id rng ~prefix:"k" a ~len),
              Printf.sprintf "k%d:" a )
        | 2 ->
            ( (fun rng -> Value_gen.make_id2 rng ~prefix:"di:" a b ~len),
              Printf.sprintf "di:%d.%d:" a b )
        | _ ->
            ( (fun rng -> Value_gen.make_id3 rng ~prefix:"cu:" a b c ~len),
              Printf.sprintf "cu:%d.%d.%d:" a b c )
      in
      let direct = Rng.create 9L and reference = Rng.create 9L in
      made direct = Value_gen.make reference ~tag:formatted ~len
      && Rng.int direct 1_000_000 = Rng.int reference 1_000_000)

(* The first 1,000 values (with their keys) each generator emits,
   digested; the digests were taken from the generators as they were
   when they formatted each tag with [Printf.sprintf], so building the
   tags in place changed no byte. *)
let first_values emit =
  let b = Buffer.create 65536 in
  let n = ref 0 in
  let add key value =
    if !n < 1000 then begin
      incr n;
      Buffer.add_string b (string_of_int key);
      Buffer.add_char b '=';
      Buffer.add_string b value;
      Buffer.add_char b '\n'
    end
  in
  emit add (fun () -> !n >= 1000);
  Digest.to_hex (Digest.string (Buffer.contents b))

let of_rows rows add _full = List.iter (fun (key, value) -> add key value) rows

let of_txns next add full =
  while not (full ()) do
    List.iter
      (function
        | Dbms.Engine.Put { key; value } -> add key value
        | Dbms.Engine.Delete { key } -> add key ""
        | Dbms.Engine.Get { key } -> add key "?")
      (next ())
  done

let value_gen_golden () =
  let rng () = Rng.create 2026L in
  let micro () = Microbench.create (rng ()) Microbench.default_config in
  let ycsb () = Ycsb_lite.create (rng ()) Ycsb_lite.workload_a in
  let tpcc () = Tpcc_lite.create (rng ()) Tpcc_lite.default_config in
  let check name expected emit =
    Alcotest.(check string) name expected (first_values emit)
  in
  check "microbench rows" "5f8c86d392c194da83e93a4add2df364"
    (of_rows (Microbench.initial_rows (micro ())));
  check "microbench next" "68c6736c3ef2c9b12957003ab8ac6129"
    (let g = micro () in
     of_txns (fun () -> Microbench.next g));
  check "ycsb rows" "4621232150daa2cee18ca6c61ddc1cb5"
    (of_rows (Ycsb_lite.initial_rows (ycsb ())));
  check "ycsb next" "36117371d0101c008520cd83df383687"
    (let g = ycsb () in
     of_txns (fun () -> Ycsb_lite.next g));
  check "tpcc rows" "69ea7e2d2eeca48ff5dfbc8aea7e270d"
    (of_rows (Tpcc_lite.initial_rows (tpcc ())));
  check "tpcc next" "e4cdae3d70f576ae70878027da3e7b87"
    (let g = tpcc () in
     of_txns (fun () -> snd (Tpcc_lite.next g)))

(* -- Key_dist ------------------------------------------------------------ *)

let key_dist_uniform_bounds () =
  let rng = Rng.create 2L in
  let dist = Key_dist.uniform ~n:50 in
  Alcotest.(check int) "n" 50 (Key_dist.n dist);
  for _ = 1 to 1000 do
    let k = Key_dist.sample rng dist in
    if k < 0 || k >= 50 then Alcotest.fail "out of range"
  done

let key_dist_zipf_skew () =
  let rng = Rng.create 3L in
  let dist = Key_dist.zipf ~n:100 ~theta:0.99 in
  let zero = ref 0 in
  for _ = 1 to 10_000 do
    if Key_dist.sample rng dist = 0 then incr zero
  done;
  Alcotest.(check bool) "head key popular" true (!zero > 300)

(* -- Microbench ----------------------------------------------------------- *)

let micro_config = { Microbench.default_config with Microbench.keys = 100 }

let micro_initial_rows () =
  let gen = Microbench.create (Rng.create 4L) micro_config in
  let rows = Microbench.initial_rows gen in
  Alcotest.(check int) "one per key" 100 (List.length rows);
  List.iter
    (fun (key, value) ->
      if key < 0 || key >= 100 then Alcotest.fail "key range";
      Alcotest.(check int) "value size" 128 (String.length value))
    rows

let micro_next_shape () =
  let gen = Microbench.create (Rng.create 5L) micro_config in
  for _ = 1 to 100 do
    match Microbench.next gen with
    | [ Dbms.Engine.Put { key; value } ] ->
        if key < 0 || key >= 100 then Alcotest.fail "key range";
        Alcotest.(check int) "value bytes" 128 (String.length value)
    | ops -> Alcotest.failf "expected one put, got %d ops" (List.length ops)
  done

let micro_multi_update () =
  let gen =
    Microbench.create (Rng.create 6L)
      { micro_config with Microbench.updates_per_txn = 4 }
  in
  Alcotest.(check int) "four updates" 4 (List.length (Microbench.next gen))

let micro_deterministic () =
  let run () =
    let gen = Microbench.create (Rng.create 7L) micro_config in
    List.init 20 (fun _ -> Microbench.next gen)
  in
  Alcotest.(check bool) "same seed, same stream" true (run () = run ())

(* -- Tpcc_lite -------------------------------------------------------------- *)

let tpcc_config = Tpcc_lite.default_config

let tpcc_initial_row_count () =
  let gen = Tpcc_lite.create (Rng.create 8L) tpcc_config in
  let c = tpcc_config in
  let expected =
    c.Tpcc_lite.warehouses
    + (c.Tpcc_lite.warehouses * 10)
    + (c.Tpcc_lite.warehouses * 10 * c.Tpcc_lite.customers_per_district)
    + (c.Tpcc_lite.warehouses * c.Tpcc_lite.items_per_warehouse)
  in
  Alcotest.(check int) "schema size" expected (List.length (Tpcc_lite.initial_rows gen))

let tpcc_initial_rows_unique_keys () =
  let gen = Tpcc_lite.create (Rng.create 9L) tpcc_config in
  let rows = Tpcc_lite.initial_rows gen in
  let keys = List.map fst rows in
  Alcotest.(check int) "no duplicates" (List.length keys)
    (List.length (List.sort_uniq Int.compare keys))

let tpcc_values_nonempty () =
  let gen = Tpcc_lite.create (Rng.create 10L) tpcc_config in
  List.iter
    (fun (_, value) ->
      Alcotest.(check int) "row size" tpcc_config.Tpcc_lite.value_bytes
        (String.length value))
    (Tpcc_lite.initial_rows gen)

let tpcc_mix_ratios () =
  let gen = Tpcc_lite.create (Rng.create 11L) tpcc_config in
  for _ = 1 to 10_000 do
    ignore (Tpcc_lite.next gen)
  done;
  let count kind =
    Option.value (List.assoc_opt kind (Tpcc_lite.mix_counts gen)) ~default:0
  in
  let no = count Tpcc_lite.New_order and pay = count Tpcc_lite.Payment in
  let ro = count Tpcc_lite.Order_status + count Tpcc_lite.Stock_level in
  Alcotest.(check bool) (Printf.sprintf "new-order ~45%% (%d)" no) true
    (no > 4100 && no < 4900);
  Alcotest.(check bool) (Printf.sprintf "payment ~43%% (%d)" pay) true
    (pay > 3900 && pay < 4700);
  Alcotest.(check bool) (Printf.sprintf "read-only ~8%% (%d)" ro) true
    (ro > 500 && ro < 1100)

let tpcc_new_order_shape () =
  let gen = Tpcc_lite.create (Rng.create 12L) tpcc_config in
  let rec find_new_order () =
    match Tpcc_lite.next gen with
    | Tpcc_lite.New_order, ops -> ops
    | _ -> find_new_order ()
  in
  let ops = find_new_order () in
  let puts = List.length (List.filter (function Dbms.Engine.Put _ -> true | Dbms.Engine.Get _ | Dbms.Engine.Delete _ -> false) ops) in
  let gets = List.length ops - puts in
  (* district + order + per line (stock + order line): 2 + 2*[5..15] *)
  Alcotest.(check bool) (Printf.sprintf "puts in range (%d)" puts) true
    (puts >= 12 && puts <= 32);
  Alcotest.(check bool) (Printf.sprintf "has reads (%d)" gets) true (gets >= 2)

let tpcc_order_status_read_only () =
  let gen = Tpcc_lite.create (Rng.create 13L) tpcc_config in
  let rec find () =
    match Tpcc_lite.next gen with
    | Tpcc_lite.Order_status, ops -> ops
    | _ -> find ()
  in
  List.iter
    (function
      | Dbms.Engine.Get _ -> ()
      | Dbms.Engine.Put _ | Dbms.Engine.Delete _ -> Alcotest.fail "order-status must be read-only")
    (find ())

let tpcc_inserts_use_fresh_keys () =
  let gen = Tpcc_lite.create (Rng.create 14L) tpcc_config in
  let schema_keys = List.map fst (Tpcc_lite.initial_rows gen) in
  let max_schema = List.fold_left max 0 schema_keys in
  let rec new_order_puts tries =
    if tries = 0 then []
    else
      match Tpcc_lite.next gen with
      | Tpcc_lite.New_order, ops ->
          List.filter_map
            (function
              | Dbms.Engine.Put { key; _ } when key >= 20_000_000 -> Some key
              | Dbms.Engine.Put _ | Dbms.Engine.Get _ | Dbms.Engine.Delete _ -> None)
            ops
      | _ -> new_order_puts (tries - 1)
  in
  let fresh = new_order_puts 100 in
  Alcotest.(check bool) "order rows beyond the schema" true
    (fresh <> [] && List.for_all (fun k -> k > max_schema) fresh)

let tpcc_kind_names () =
  Alcotest.(check string) "new-order" "new-order" (Tpcc_lite.kind_name Tpcc_lite.New_order);
  Alcotest.(check string) "delivery" "delivery" (Tpcc_lite.kind_name Tpcc_lite.Delivery)

let tpcc_deterministic () =
  let run () =
    let gen = Tpcc_lite.create (Rng.create 15L) tpcc_config in
    List.init 50 (fun _ -> snd (Tpcc_lite.next gen))
  in
  Alcotest.(check bool) "same seed, same stream" true (run () = run ())

(* -- Client ------------------------------------------------------------------- *)

let client_rig () =
  let sim = Sim.create ~seed:20L () in
  let vmm = Hypervisor.Vmm.create sim Hypervisor.Vmm.native in
  let log_dev = Storage.Ssd.create sim Storage.Ssd.default in
  let data_dev = Storage.Ssd.create sim Storage.Ssd.default in
  let wal = Dbms.Wal.create sim Dbms.Wal.default_config ~device:log_dev in
  let pool =
    Dbms.Buffer_pool.create sim Dbms.Buffer_pool.default_config ~device:data_dev
      ~wal_force:(fun ~page:_ lsn -> Dbms.Wal.force wal lsn)
  in
  let engine =
    Dbms.Engine.create ~vmm ~profile:Dbms.Engine_profile.postgres_like ~wal ~pool ()
  in
  (sim, vmm, engine)

let clients_commit_until_stopped () =
  let sim, vmm, engine = client_rig () in
  let acks = ref 0 in
  ignore
    (Client.spawn ~vmm Client.default_config ~count:3
       ~gen:(fun ~client ->
         [ Dbms.Engine.Put { key = client; value = "x" } ])
       ~engine
       ~on_commit:(fun ~client:_ _ -> incr acks));
  Sim.schedule_after sim (Time.ms 50) (fun () -> Hypervisor.Vmm.crash_guest vmm);
  Sim.run sim;
  Alcotest.(check bool) (Printf.sprintf "many acks (%d)" !acks) true (!acks > 10)

let clients_think_time_limits_rate () =
  let run think_time =
    let sim, vmm, engine = client_rig () in
    let acks = ref 0 in
    ignore
      (Client.spawn ~vmm { Client.think_time } ~count:1
         ~gen:(fun ~client:_ -> [ Dbms.Engine.Put { key = 1; value = "x" } ])
         ~engine
         ~on_commit:(fun ~client:_ _ -> incr acks));
    Sim.schedule_after sim (Time.ms 100) (fun () -> Hypervisor.Vmm.crash_guest vmm);
    Sim.run sim;
    !acks
  in
  let eager = run Time.zero_span in
  let lazy_rate = run (Time.ms 10) in
  Alcotest.(check bool)
    (Printf.sprintf "think time throttles (%d vs %d)" lazy_rate eager)
    true
    (lazy_rate < eager / 2);
  Alcotest.(check bool) "roughly one per think period" true
    (lazy_rate >= 8 && lazy_rate <= 12)

let clients_pass_client_index () =
  let sim, vmm, engine = client_rig () in
  let seen = Hashtbl.create 8 in
  ignore
    (Client.spawn ~vmm Client.default_config ~count:4
       ~gen:(fun ~client -> [ Dbms.Engine.Put { key = client; value = "x" } ])
       ~engine
       ~on_commit:(fun ~client result ->
         List.iter
           (fun (key, _) -> Hashtbl.replace seen (client, key) ())
           result.Dbms.Engine.writes));
  Sim.schedule_after sim (Time.ms 10) (fun () -> Hypervisor.Vmm.crash_guest vmm);
  Sim.run sim;
  for client = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "client %d wrote its own key" client)
      true
      (Hashtbl.mem seen (client, client))
  done

let suites =
  [
    ( "workload.value_gen",
      [
        case "length and tag" value_gen_length_and_tag;
        case "tag truncation" value_gen_tag_truncated;
        value_gen_id_tags_prop;
        case "generators' first values unchanged" value_gen_golden;
      ] );
    ( "workload.key_dist",
      [
        case "uniform bounds" key_dist_uniform_bounds;
        case "zipf skew" key_dist_zipf_skew;
      ] );
    ( "workload.microbench",
      [
        case "initial rows" micro_initial_rows;
        case "single-update transactions" micro_next_shape;
        case "multi-update configuration" micro_multi_update;
        case "deterministic by seed" micro_deterministic;
      ] );
    ( "workload.tpcc_lite",
      [
        case "initial row count matches the schema" tpcc_initial_row_count;
        case "initial keys unique" tpcc_initial_rows_unique_keys;
        case "row payload sizes" tpcc_values_nonempty;
        case "transaction mix ratios" tpcc_mix_ratios;
        case "new-order shape" tpcc_new_order_shape;
        case "order-status is read-only" tpcc_order_status_read_only;
        case "inserts allocate fresh keys" tpcc_inserts_use_fresh_keys;
        case "kind names" tpcc_kind_names;
        case "deterministic by seed" tpcc_deterministic;
      ] );
    ( "workload.client",
      [
        case "closed loop commits until stopped" clients_commit_until_stopped;
        case "think time throttles the rate" clients_think_time_limits_rate;
        case "client index reaches generator and callback" clients_pass_client_index;
      ] );
  ]

(* -- Ycsb_lite (appended) -------------------------------------------------- *)

let ycsb_config = { Ycsb_lite.default_config with Ycsb_lite.keys = 200 }

let ycsb_initial_rows () =
  let gen = Ycsb_lite.create (Rng.create 30L) ycsb_config in
  Alcotest.(check int) "one per key" 200 (List.length (Ycsb_lite.initial_rows gen))

let ycsb_read_fraction_respected () =
  let gen =
    Ycsb_lite.create (Rng.create 31L)
      { ycsb_config with Ycsb_lite.read_fraction = 0.8; ops_per_txn = 1 }
  in
  for _ = 1 to 5000 do
    ignore (Ycsb_lite.next gen)
  done;
  let reads = Ycsb_lite.reads_issued gen and updates = Ycsb_lite.updates_issued gen in
  let frac = float_of_int reads /. float_of_int (reads + updates) in
  Alcotest.(check bool) (Printf.sprintf "~80%% reads (%.2f)" frac) true
    (frac > 0.76 && frac < 0.84)

let ycsb_read_only_extreme () =
  let gen =
    Ycsb_lite.create (Rng.create 32L) { ycsb_config with Ycsb_lite.read_fraction = 1.0 }
  in
  for _ = 1 to 100 do
    List.iter
      (function
        | Dbms.Engine.Get _ -> ()
        | Dbms.Engine.Put _ | Dbms.Engine.Delete _ -> Alcotest.fail "read-only workload wrote")
      (Ycsb_lite.next gen)
  done

let ycsb_update_only_extreme () =
  let gen =
    Ycsb_lite.create (Rng.create 33L) { ycsb_config with Ycsb_lite.read_fraction = 0.0 }
  in
  for _ = 1 to 100 do
    List.iter
      (function
        | Dbms.Engine.Put { value; _ } ->
            Alcotest.(check int) "value size" 100 (String.length value)
        | Dbms.Engine.Get _ -> Alcotest.fail "update-only workload read"
        | Dbms.Engine.Delete _ -> ())
      (Ycsb_lite.next gen)
  done

let ycsb_ops_per_txn () =
  let gen =
    Ycsb_lite.create (Rng.create 34L) { ycsb_config with Ycsb_lite.ops_per_txn = 5 }
  in
  Alcotest.(check int) "five ops" 5 (List.length (Ycsb_lite.next gen))

let ycsb_suite =
  ( "workload.ycsb_lite",
    [
      case "initial rows" ycsb_initial_rows;
      case "read fraction respected" ycsb_read_fraction_respected;
      case "read-only extreme" ycsb_read_only_extreme;
      case "update-only extreme" ycsb_update_only_extreme;
      case "ops per transaction" ycsb_ops_per_txn;
    ] )

let suites = suites @ [ ycsb_suite ]
