(* Tests for the discrete-event simulation engine. *)

open Desim
open Testu

(* -- Time ---------------------------------------------------------- *)

let time_units () =
  check_span "us" (Time.ns 1_000) (Time.us 1);
  check_span "ms" (Time.us 1_000) (Time.ms 1);
  check_span "sec" (Time.ms 1_000) (Time.sec 1)

let time_arithmetic () =
  let t = Time.add Time.zero (Time.ms 5) in
  check_span "diff" (Time.ms 5) (Time.diff t Time.zero);
  check_span "add_span" (Time.ms 7) (Time.add_span (Time.ms 5) (Time.ms 2));
  check_span "sub_span" (Time.ms 3) (Time.sub_span (Time.ms 5) (Time.ms 2));
  check_span "mul" (Time.ms 10) (Time.mul_span (Time.ms 5) 2);
  check_span "div" (Time.us 500) (Time.div_span (Time.ms 5) 10);
  check_span "scale" (Time.ms 6) (Time.scale_span (Time.ms 4) 1.5)

let time_float_conversions () =
  check_near "to_sec" 0.005 (Time.span_to_float_sec (Time.ms 5));
  check_near "to_us" 5000. (Time.span_to_float_us (Time.ms 5));
  check_span "of_sec" (Time.ms 5) (Time.span_of_float_sec 0.005);
  check_span "of_us" (Time.us 3) (Time.span_of_float_us 3.0)

let time_compare () =
  let a = Time.of_ns 10 and b = Time.of_ns 20 in
  Alcotest.(check bool) "lt" true Time.(a < b);
  Alcotest.(check bool) "le" true Time.(a <= a);
  Alcotest.(check bool) "min" true (Time.equal (Time.min a b) a);
  Alcotest.(check bool) "max" true (Time.equal (Time.max a b) b)

let time_pp () =
  let show span = Format.asprintf "%a" Time.pp_span span in
  Alcotest.(check string) "ns" "999ns" (show (Time.ns 999));
  Alcotest.(check string) "us" "1.500us" (show (Time.ns 1_500));
  Alcotest.(check string) "ms" "2.000ms" (show (Time.ms 2));
  Alcotest.(check string) "s" "3.000s" (show (Time.sec 3))

(* -- Event queue ----------------------------------------------------

   [Event_queue] is the hierarchical timer wheel since PR 8;
   [Binary_heap] is the O(log n) reference backend it must agree with.
   Directed cases run against the wheel. Arbitrary-order interleavings
   run against the heap — the wheel's contract is monotone adds (at or
   after the last popped time, which [Sim] guarantees) — and the
   model-equivalence property drives both backends with one monotone op
   stream and demands identical pop order, same-instant bursts and
   far-future overflow cascades included. *)

let drain_queue q =
  let rec go acc =
    if Event_queue.is_empty q then List.rev acc
    else
      let t = Time.to_ns (Event_queue.min_time q) in
      go ((t, Event_queue.pop_min q) :: acc)
  in
  go []

let queue_ordering () =
  let q = Event_queue.create () in
  Event_queue.add q ~time:(Time.of_ns 30) 3;
  Event_queue.add q ~time:(Time.of_ns 10) 1;
  Event_queue.add q ~time:(Time.of_ns 20) 2;
  Alcotest.(check (list (pair int int)))
    "sorted"
    [ (10, 1); (20, 2); (30, 3) ]
    (drain_queue q);
  Alcotest.(check bool) "drained" true (Event_queue.is_empty q)

let queue_fifo_same_time () =
  let q = Event_queue.create () in
  List.iter (fun v -> Event_queue.add q ~time:(Time.of_ns 5) v) [ 1; 2; 3; 4 ];
  Alcotest.(check (list int)) "insertion order" [ 1; 2; 3; 4 ]
    (List.map snd (drain_queue q))

let queue_peek_and_length () =
  let q = Event_queue.create () in
  Alcotest.(check bool) "starts empty" true (Event_queue.is_empty q);
  Event_queue.add q ~time:(Time.of_ns 42) ();
  Alcotest.(check int) "len" 1 (Event_queue.length q);
  Alcotest.(check int) "peek time" 42 (Time.to_ns (Event_queue.min_time q));
  Alcotest.(check int) "peek does not pop" 1 (Event_queue.length q)

(* The three behaviours callers rely on, through the allocation-free
   API: an empty queue reports empty, a peek does not pop, and events at
   one instant pop in insertion order. *)
let queue_empty_peek_fifo () =
  let q = Event_queue.create () in
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q);
  Alcotest.(check bool) "drain empty" false
    (Event_queue.drain_one q ~f:(fun _ _ -> Alcotest.fail "drained empty"));
  Event_queue.add q ~time:(Time.of_ns 7) "a";
  Event_queue.add q ~time:(Time.of_ns 7) "b";
  Alcotest.(check int) "peek time" 7 (Time.to_ns (Event_queue.min_time q));
  Alcotest.(check int) "peek does not pop" 2 (Event_queue.length q);
  let popped = ref [] in
  let pop () =
    Event_queue.drain_one q ~f:(fun t v -> popped := (Time.to_ns t, v) :: !popped)
  in
  Alcotest.(check bool) "pop" true (pop ());
  Alcotest.(check (list (pair int string))) "pop fifo" [ (7, "a") ] !popped;
  Alcotest.(check int) "one left" 1 (Event_queue.length q);
  Alcotest.(check bool) "pop" true (pop ());
  Alcotest.(check (list (pair int string))) "then b" [ (7, "b"); (7, "a") ] !popped;
  Alcotest.(check bool) "empty again" true (Event_queue.is_empty q)

let queue_growth () =
  let q = Event_queue.create () in
  for i = 999 downto 0 do
    Event_queue.add q ~time:(Time.of_ns i) i
  done;
  Alcotest.(check int) "length" 1000 (Event_queue.length q);
  let sorted = ref true and prev = ref (-1) in
  List.iter
    (fun (_, v) ->
      if v < !prev then sorted := false;
      prev := v)
    (drain_queue q);
  Alcotest.(check bool) "order maintained across growth" true !sorted

(* Far-future events take the overflow path (they differ from the wheel
   clock beyond the wheel span) and must still interleave exactly with
   near events, insertion order preserved at equal instants. *)
let queue_far_future_overflow () =
  let far = 3 * Timer_wheel.wheel_span in
  let q = Event_queue.create () in
  Event_queue.add q ~time:(Time.of_ns far) 10;
  Event_queue.add q ~time:(Time.of_ns 5) 1;
  Event_queue.add q ~time:(Time.of_ns far) 11;
  Event_queue.add q ~time:(Time.of_ns (far + 1)) 12;
  Event_queue.add q ~time:(Time.of_ns 6) 2;
  Alcotest.(check (list (pair int int)))
    "near events first, far events in insertion order"
    [ (5, 1); (6, 2); (far, 10); (far, 11); (far + 1, 12) ]
    (drain_queue q)

let queue_monotone_contract () =
  let q = Event_queue.create () in
  Event_queue.add q ~time:(Time.of_ns 1000) ();
  ignore (Event_queue.pop_min q);
  Alcotest.check_raises "below-horizon add refused"
    (Invalid_argument "Timer_wheel.add: time precedes the last popped time")
    (fun () -> Event_queue.add q ~time:(Time.of_ns 10) ())

let queue_pop_sorted_prop =
  prop "event queue pops in nondecreasing time order"
    QCheck2.Gen.(list_size (int_range 0 200) (int_range 0 1000))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> Event_queue.add q ~time:(Time.of_ns t) t) times;
      let rec check prev = function
        | [] -> true
        | (t, _) :: rest -> t >= prev && check t rest
      in
      check (-1) (drain_queue q))

(* The full determinism contract: pop order is exactly the stable sort
   of the inserted events by time — ties resolved by insertion order. *)
let queue_stable_sort_prop =
  prop "pop order equals stable sort by (time, insertion seq)"
    QCheck2.Gen.(list_size (int_range 0 300) (int_range 0 20))
    (fun times ->
      let q = Event_queue.create () in
      List.iteri (fun i t -> Event_queue.add q ~time:(Time.of_ns t) (t, i)) times;
      let expected =
        List.stable_sort
          (fun (t1, _) (t2, _) -> compare t1 t2)
          (List.mapi (fun i t -> (t, i)) times)
      in
      List.map snd (drain_queue q) = expected)

(* Interleaved add/pop against a sorted-list reference model, on the
   backend that accepts arbitrary-order inserts: whatever the heap's
   internal layout after arbitrary interleavings, it must keep serving
   the (time, seq) minimum. *)
let heap_interleaved_model_prop =
  prop "binary heap: interleaved add/pop matches a reference model"
    QCheck2.Gen.(
      list_size (int_range 0 300)
        (oneof [ map (fun t -> `Add t) (int_range 0 50); return `Pop ]))
    (fun ops ->
      let q = Binary_heap.create () in
      let model = ref [] in
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | `Add t ->
              Binary_heap.add q ~time:(Time.of_ns t) (t, !seq);
              model :=
                List.merge
                  (fun (t1, s1) (t2, s2) -> compare (t1, s1) (t2, s2))
                  !model
                  [ (t, !seq) ];
              incr seq
          | `Pop -> (
              match (Binary_heap.is_empty q, !model) with
              | true, [] -> ()
              | true, _ :: _ | false, [] -> ok := false
              | false, expected :: rest ->
                  if Binary_heap.min_time q <> Time.of_ns (fst expected) then
                    ok := false;
                  if Binary_heap.pop_min q <> expected then ok := false;
                  model := rest))
        ops;
      !ok
      && List.length !model = Binary_heap.length q
      && (let rec drain acc =
            if Binary_heap.is_empty q then List.rev acc
            else drain (Binary_heap.pop_min q :: acc)
          in
          drain [] = !model))

(* The PR 8 model-equivalence gate: the timer wheel and the binary heap,
   driven by one monotone op stream, must agree on every observation —
   emptiness, length, minimum time and the exact (time, seq) pop order.
   The delta generator mixes same-instant bursts (delta 0), everyday
   short and medium horizons (level 0-2 slots), multi-ms jumps that
   force multi-level cascades, and beyond-span jumps that exercise the
   overflow heap and its re-merge with the wheel. *)
let wheel_vs_heap_prop =
  let delta_gen =
    QCheck2.Gen.(
      frequency
        [
          (3, return 0);
          (4, int_range 1 255);
          (3, int_range 256 65_535);
          (2, int_range 65_536 16_777_215);
          (2, int_range 16_777_216 (1 lsl 33));
          (1, int_range (2 * Timer_wheel.wheel_span) (8 * Timer_wheel.wheel_span));
        ])
  in
  prop "timer wheel pops identically to the binary heap" ~count:300
    QCheck2.Gen.(
      list_size (int_range 0 400)
        (frequency [ (3, map (fun d -> `Add d) delta_gen); (2, return `Pop) ]))
    (fun ops ->
      let wheel = Event_queue.create () in
      let heap = Binary_heap.create () in
      let low = ref 0 in
      (* adds are relative to the last popped time, so both backends see
         a stream the wheel's monotone contract admits *)
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | `Add d ->
              let t = Time.of_ns (!low + d) in
              Event_queue.add wheel ~time:t !seq;
              Binary_heap.add heap ~time:t !seq;
              incr seq
          | `Pop ->
              if Event_queue.is_empty wheel <> Binary_heap.is_empty heap then
                ok := false
              else if not (Binary_heap.is_empty heap) then begin
                let wt = Time.to_ns (Event_queue.min_time wheel) in
                let ht = Time.to_ns (Binary_heap.min_time heap) in
                if wt <> ht then ok := false;
                if Event_queue.pop_min wheel <> Binary_heap.pop_min heap then
                  ok := false;
                low := ht
              end)
        ops;
      !ok
      && Event_queue.length wheel = Binary_heap.length heap
      && (let rec drain acc =
            if Binary_heap.is_empty heap then List.rev acc
            else begin
              let t = Time.to_ns (Binary_heap.min_time heap) in
              let v = Binary_heap.pop_min heap in
              drain ((t, v) :: acc)
            end
          in
          drain [] = drain_queue wheel))

(* -- Sim ------------------------------------------------------------ *)

let sim_schedule_order () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule_after sim (Time.ms 2) (fun () -> log := 2 :: !log);
  Sim.schedule_after sim (Time.ms 1) (fun () -> log := 1 :: !log);
  Sim.schedule_after sim (Time.ms 3) (fun () -> log := 3 :: !log);
  Sim.run sim;
  Alcotest.(check (list int)) "in time order" [ 1; 2; 3 ] (List.rev !log)

let sim_clock_advances () =
  let sim = Sim.create () in
  let seen = ref Time.zero in
  Sim.schedule_after sim (Time.ms 7) (fun () -> seen := Sim.now sim);
  Sim.run sim;
  Alcotest.(check int) "clock at event" (Time.to_ns (Time.add Time.zero (Time.ms 7)))
    (Time.to_ns !seen)

let sim_run_until () =
  let sim = Sim.create () in
  let fired = ref [] in
  Sim.schedule_after sim (Time.ms 1) (fun () -> fired := 1 :: !fired);
  Sim.schedule_after sim (Time.ms 10) (fun () -> fired := 10 :: !fired);
  Sim.run ~until:(Time.add Time.zero (Time.ms 5)) sim;
  Alcotest.(check (list int)) "only early event" [ 1 ] !fired;
  Alcotest.(check int) "clock parked at limit"
    (Time.to_ns (Time.add Time.zero (Time.ms 5)))
    (Time.to_ns (Sim.now sim));
  Alcotest.(check int) "late event still queued" 1 (Sim.pending sim)

let sim_step () =
  let sim = Sim.create () in
  let count = ref 0 in
  Sim.schedule_now sim (fun () -> incr count);
  Sim.schedule_now sim (fun () -> incr count);
  Alcotest.(check bool) "step 1" true (Sim.step sim);
  Alcotest.(check int) "one ran" 1 !count;
  Alcotest.(check bool) "step 2" true (Sim.step sim);
  Alcotest.(check bool) "step empty" false (Sim.step sim)

let sim_nested_scheduling () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule_after sim (Time.ms 1) (fun () ->
      log := "outer" :: !log;
      Sim.schedule_after sim (Time.ms 1) (fun () -> log := "inner" :: !log));
  Sim.run sim;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log)

let sim_seed_exposed () =
  let sim = Sim.create ~seed:99L () in
  Alcotest.(check int64) "seed" 99L (Sim.seed sim)

(* -- Rng ------------------------------------------------------------ *)

let rng_deterministic () =
  let a = Rng.create 7L and b = Rng.create 7L in
  let sa = List.init 16 (fun _ -> Rng.bits64 a) in
  let sb = List.init 16 (fun _ -> Rng.bits64 b) in
  Alcotest.(check (list int64)) "same seed, same stream" sa sb

let rng_seeds_differ () =
  let a = Rng.create 1L and b = Rng.create 2L in
  Alcotest.(check bool) "different" true (Rng.bits64 a <> Rng.bits64 b)

let rng_split_independent () =
  let parent = Rng.create 3L in
  let child = Rng.split parent in
  let child_vals = List.init 8 (fun _ -> Rng.bits64 child) in
  let parent_vals = List.init 8 (fun _ -> Rng.bits64 parent) in
  Alcotest.(check bool) "streams differ" true (child_vals <> parent_vals)

let rng_copy () =
  let a = Rng.create 5L in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy resumes identically" (Rng.bits64 a) (Rng.bits64 b)

(* The generator's stream is part of every simulated result: each
   scenario, crash sweep and benchmark figure is a function of it. These
   vectors pin xoshiro256++ as seeded by splitmix64, so a change of the
   generator's representation must reproduce them exactly. The [int]
   bounds just above 2^61 reject about half the raw draws, which pins the
   rejection loop too, and the Zipf draws pin [Zipf.sample]'s search. *)
type rng_golden = {
  g_seed : int64;
  g_bits : int64 list;
  g_ints : int list;
  g_floats : float list;
  g_child : int64 list;
  g_parent : int64;
  g_after_copy : int64 list;
  g_zipf : int list;  (* alternating n = 100k, theta 0.99 and n = 10, theta 0.5 *)
}

let rng_golden_bounds =
  [ 1; 2; 7; 1000; 1 lsl 40; (1 lsl 61) + 1; (1 lsl 61) + 1; (1 lsl 61) + 1;
    max_int ]

let rng_golden_vectors =
  [
    {
      g_seed = 0L;
      g_bits = [ 0x53175d61490b23dfL; 0x61da6f3dc380d507L; 0x5c0fdf91ec9a7bfcL ];
      g_ints =
        [ 0; 0; 6; 451; 1071889183318; 1359920133646220351; 342342936208380677;
          1450476892589155930; 304698652912948095 ];
      g_floats = [ 0x1.aae5543439608p-4; 0x1.804139f10faep-4; 0x1.0d790e7b8ac1p-4 ];
      g_child = [ 0xbca031832c743e28L; 0x8ff6258af6247130L ];
      g_parent = 0xa04620d3d0fc04a8L;
      g_after_copy = [ 0x1d50881230af9cc3L; 0x53be287ded35f698L ];
      g_zipf = [ 87; 1; 2; 0; 17; 2 ];
    };
    {
      g_seed = 7L;
      g_bits = [ 0x0e2c1a002aae913dL; 0x2c0fc8ddfa4e9e14L; 0xb7b311b3b0d45872L ];
      g_ints =
        [ 0; 1; 5; 152; 922193262922; 337961834523935867; 526844718573012110;
          793063069908102047; 3384164580656951554 ];
      g_floats = [ 0x1.cf3305d746a18p-4; 0x1.fa81a3c70722p-2; 0x1.8e718927f54ep-4 ];
      g_child = [ 0xfababc69c3e6f41fL; 0x57e43df69b296265L ];
      g_parent = 0x2f36ae4712c2aabeL;
      g_after_copy = [ 0x1c2503d28c43d52bL; 0xca3959f6a3c6b39cL ];
      g_zipf = [ 2318; 2; 9154; 3; 16440; 0 ];
    };
    {
      g_seed = Int64.max_int;
      g_bits = [ 0xa14925d27f28e2abL; 0xe1ac012c894e8ddbL; 0x015f08b1af9e9938L ];
      g_ints =
        [ 0; 1; 4; 417; 597416286721; 1187796355863700663; 511049781448878150;
          1666487383859346793; 425414005670595728 ];
      g_floats = [ 0x1.4357d04d19a36p-1; 0x1.e92ee255ddcafp-1; 0x1.0693560250e91p-1 ];
      g_child = [ 0x9116d9ecc24845c3L; 0x4a5a7a908289a256L ];
      g_parent = 0xafe809adf03bd468L;
      g_after_copy = [ 0xc02bac858db7eba6L; 0xe4e887da8637a129L ];
      g_zipf = [ 79543; 0; 58; 9; 1; 4 ];
    };
    {
      g_seed = -1L;
      g_bits = [ 0x56ccf8ce948e27b2L; 0xe68588432e5a5b90L; 0xe3e9b5a48119ca8bL ];
      g_ints =
        [ 0; 0; 6; 506; 458808545151; 1577026317601551287; 270770929554346340;
          1231544098869540023; 1507734732804173889 ];
      g_floats = [ 0x1.86ee461c89ccep-1; 0x1.3cf7c96e335fp-3; 0x1.752dba3b4762p-2 ];
      g_child = [ 0xf4d9b508278bd6f6L; 0x97c404ef8e4ed10bL ];
      g_parent = 0x32c14ddbee71348cL;
      g_after_copy = [ 0x93f91010e464e2edL; 0x69e31711847544ffL ];
      g_zipf = [ 8381; 0; 5409; 1; 42561; 1 ];
    };
  ]

let zipf_big = Rng.Zipf.create ~n:100_000 ~theta:0.99
let zipf_small = Rng.Zipf.create ~n:10 ~theta:0.5

let rng_golden_streams () =
  List.iter
    (fun g ->
      let label what = Printf.sprintf "seed %Ld: %s" g.g_seed what in
      let r = Rng.create g.g_seed in
      Alcotest.(check (list int64)) (label "bits64") g.g_bits
        (List.map (fun _ -> Rng.bits64 r) g.g_bits);
      Alcotest.(check (list int)) (label "int") g.g_ints
        (List.map (Rng.int r) rng_golden_bounds);
      Alcotest.(check (list (float 0.))) (label "float") g.g_floats
        (List.map (fun _ -> Rng.float r) g.g_floats);
      let child = Rng.split r in
      Alcotest.(check (list int64)) (label "split child") g.g_child
        (List.map (fun _ -> Rng.bits64 child) g.g_child);
      Alcotest.(check int64) (label "split parent") g.g_parent (Rng.bits64 r);
      let dup = Rng.copy r in
      Alcotest.(check (list int64)) (label "original after copy") g.g_after_copy
        (List.map (fun _ -> Rng.bits64 r) g.g_after_copy);
      Alcotest.(check (list int64)) (label "copy") g.g_after_copy
        (List.map (fun _ -> Rng.bits64 dup) g.g_after_copy);
      Alcotest.(check (list int)) (label "zipf") g.g_zipf
        (List.mapi
           (fun i _ -> Rng.Zipf.sample r (if i mod 2 = 0 then zipf_big else zipf_small))
           g.g_zipf))
    rng_golden_vectors

let rng_int_bounds_prop =
  prop "Rng.int stays in [0, n)"
    QCheck2.Gen.(pair (int_range 1 10_000) (int_range 0 1000))
    (fun (n, salt) ->
      let rng = Rng.create (Int64.of_int salt) in
      let v = Rng.int rng n in
      v >= 0 && v < n)

let rng_float_bounds_prop =
  prop "Rng.float stays in [0, 1)" QCheck2.Gen.(int_range 0 100_000) (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let v = Rng.float rng in
      v >= 0. && v < 1.)

let rng_int_in () =
  let rng = Rng.create 11L in
  for _ = 1 to 1000 do
    let v = Rng.int_in rng 5 9 in
    if v < 5 || v > 9 then Alcotest.fail "out of range"
  done

let rng_uniformity_rough () =
  let rng = Rng.create 13L in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Rng.int rng 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter
    (fun count ->
      let frac = float_of_int count /. float_of_int n in
      if frac < 0.08 || frac > 0.12 then Alcotest.failf "bucket fraction %g" frac)
    buckets

let rng_exponential_mean () =
  let rng = Rng.create 17L in
  let n = 50_000 in
  let total = ref 0. in
  for _ = 1 to n do
    total := !total +. Rng.exponential rng ~mean:4.0
  done;
  check_near "mean" ~tolerance:0.15 4.0 (!total /. float_of_int n)

let rng_normal_moments () =
  let rng = Rng.create 19L in
  let n = 50_000 in
  let s = Stats.Summary.create () in
  for _ = 1 to n do
    Stats.Summary.add s (Rng.normal rng ~mu:10. ~sigma:2.)
  done;
  check_near "mu" ~tolerance:0.1 10. (Stats.Summary.mean s);
  check_near "sigma" ~tolerance:0.1 2. (Stats.Summary.stddev s)

let rng_shuffle_permutation_prop =
  prop "shuffle is a permutation" QCheck2.Gen.(list_size (int_range 0 50) int)
    (fun items ->
      let arr = Array.of_list items in
      let rng = Rng.create 23L in
      Rng.shuffle rng arr;
      List.sort compare (Array.to_list arr) = List.sort compare items)

let rng_pick () =
  let rng = Rng.create 29L in
  let arr = [| "a"; "b"; "c" |] in
  for _ = 1 to 100 do
    let v = Rng.pick rng arr in
    if not (Array.exists (String.equal v) arr) then Alcotest.fail "pick outside"
  done

let zipf_bounds_and_skew () =
  let rng = Rng.create 31L in
  let dist = Rng.Zipf.create ~n:100 ~theta:0.99 in
  let counts = Array.make 100 0 in
  for _ = 1 to 20_000 do
    let v = Rng.Zipf.sample rng dist in
    if v < 0 || v >= 100 then Alcotest.fail "zipf out of range";
    counts.(v) <- counts.(v) + 1
  done;
  Alcotest.(check bool) "rank 0 beats rank 50" true (counts.(0) > counts.(50))

let zipf_theta_zero_uniform () =
  let rng = Rng.create 37L in
  let dist = Rng.Zipf.create ~n:10 ~theta:0. in
  let counts = Array.make 10 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let v = Rng.Zipf.sample rng dist in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun count ->
      let frac = float_of_int count /. float_of_int n in
      if frac < 0.08 || frac > 0.12 then Alcotest.failf "not uniform: %g" frac)
    counts

let rng_span () =
  let rng = Rng.create 41L in
  for _ = 1 to 1000 do
    let s = Rng.span rng (Time.ms 2) in
    let ns = Time.span_to_ns s in
    if ns < 0 || ns >= 2_000_000 then Alcotest.fail "span out of range"
  done

(* -- Process -------------------------------------------------------- *)

let process_runs () =
  let ran = run_in_sim (fun _sim -> true) in
  Alcotest.(check bool) "body executed" true ran

let process_sleep_advances_clock () =
  let elapsed =
    run_in_sim (fun sim ->
        let before = Sim.now sim in
        Process.sleep (Time.ms 3);
        Time.diff (Sim.now sim) before)
  in
  check_span "slept" (Time.ms 3) elapsed

let process_sleeps_accumulate () =
  let elapsed =
    run_in_sim (fun sim ->
        Process.sleep (Time.ms 1);
        Process.sleep (Time.ms 2);
        Process.sleep (Time.us 500);
        Time.diff (Sim.now sim) Time.zero)
  in
  check_span "total" (Time.us 3500) elapsed

let process_self_name () =
  let name =
    with_sim (fun sim ->
        let result = ref "" in
        ignore
          (Process.spawn sim ~name:"alpha" (fun () ->
               result := Process.name (Process.self ())));
        fun () -> !result)
  in
  Alcotest.(check string) "name" "alpha" name

let process_cancel_pending_sleep () =
  let sim = Sim.create () in
  let reached = ref false in
  let h =
    Process.spawn sim ~name:"victim" (fun () ->
        Process.sleep (Time.ms 10);
        reached := true)
  in
  Sim.schedule_after sim (Time.ms 1) (fun () -> Process.cancel h);
  Sim.run sim;
  Alcotest.(check bool) "never resumed past cancel" false !reached;
  Alcotest.(check bool) "dead" false (Process.is_alive h)

let process_cancel_runs_finalisers () =
  let sim = Sim.create () in
  let cleaned = ref false in
  let h =
    Process.spawn sim (fun () ->
        Fun.protect
          ~finally:(fun () -> cleaned := true)
          (fun () -> Process.sleep (Time.ms 10)))
  in
  Sim.schedule_after sim (Time.ms 1) (fun () -> Process.cancel h);
  Sim.run sim;
  Alcotest.(check bool) "finaliser ran on cancellation" true !cleaned

let process_suspend_resume_value () =
  let sim = Sim.create () in
  let got = ref 0 in
  let resume_slot = ref None in
  ignore
    (Process.spawn sim (fun () ->
         got := Process.suspend (fun resume -> resume_slot := Some resume)));
  Sim.schedule_after sim (Time.ms 1) (fun () ->
      match !resume_slot with
      | Some resume -> resume 42
      | None -> Alcotest.fail "not registered");
  Sim.run sim;
  Alcotest.(check int) "value delivered" 42 !got

let process_resume_twice_ignored () =
  let sim = Sim.create () in
  let count = ref 0 in
  let resume_slot = ref None in
  ignore
    (Process.spawn sim (fun () ->
         ignore (Process.suspend (fun resume -> resume_slot := Some resume) : int);
         incr count));
  Sim.schedule_after sim (Time.ms 1) (fun () ->
      let resume = Option.get !resume_slot in
      resume 1;
      resume 2);
  Sim.run sim;
  Alcotest.(check int) "resumed exactly once" 1 !count

let process_yield_interleaves () =
  let sim = Sim.create () in
  let log = ref [] in
  let worker tag () =
    for i = 1 to 2 do
      log := Printf.sprintf "%s%d" tag i :: !log;
      Process.yield ()
    done
  in
  ignore (Process.spawn sim (worker "a"));
  ignore (Process.spawn sim (worker "b"));
  Sim.run sim;
  Alcotest.(check (list string)) "round robin" [ "a1"; "b1"; "a2"; "b2" ]
    (List.rev !log)

let process_blocking_outside_raises () =
  Alcotest.check_raises "sleep outside process" Process.Not_in_process (fun () ->
      Process.sleep (Time.ms 1))

let process_exception_propagates () =
  let sim = Sim.create () in
  ignore (Process.spawn sim (fun () -> failwith "boom"));
  Alcotest.check_raises "escapes run" (Failure "boom") (fun () -> Sim.run sim)

let process_spawn_from_process () =
  let total =
    with_sim (fun sim ->
        let count = ref 0 in
        ignore
          (Process.spawn sim (fun () ->
               for _ = 1 to 3 do
                 ignore (Process.spawn sim (fun () -> incr count))
               done));
        fun () -> !count)
  in
  Alcotest.(check int) "children ran" 3 total

(* -- Resource -------------------------------------------------------- *)

let semaphore_counting () =
  with_sim (fun sim ->
      let sem = Resource.Semaphore.create sim 2 in
      Alcotest.(check int) "initial" 2 (Resource.Semaphore.available sem);
      Alcotest.(check bool) "try 1" true (Resource.Semaphore.try_acquire sem);
      Alcotest.(check bool) "try 2" true (Resource.Semaphore.try_acquire sem);
      Alcotest.(check bool) "exhausted" false (Resource.Semaphore.try_acquire sem);
      Resource.Semaphore.release sem;
      Alcotest.(check int) "released" 1 (Resource.Semaphore.available sem);
      fun () -> ())

let semaphore_blocking_fifo () =
  let sim = Sim.create () in
  let sem = Resource.Semaphore.create sim 1 in
  let order = ref [] in
  let contender tag delay () =
    Process.sleep delay;
    Resource.Semaphore.acquire sem;
    order := tag :: !order;
    Process.sleep (Time.ms 5);
    Resource.Semaphore.release sem
  in
  ignore (Process.spawn sim (contender "a" (Time.ms 0)));
  ignore (Process.spawn sim (contender "b" (Time.ms 1)));
  ignore (Process.spawn sim (contender "c" (Time.ms 2)));
  Sim.run sim;
  Alcotest.(check (list string)) "FIFO grant order" [ "a"; "b"; "c" ]
    (List.rev !order)

let semaphore_waiting_count () =
  let sim = Sim.create () in
  let sem = Resource.Semaphore.create sim 1 in
  ignore
    (Process.spawn sim (fun () ->
         Resource.Semaphore.acquire sem;
         Process.sleep (Time.ms 10);
         Resource.Semaphore.release sem));
  ignore (Process.spawn sim (fun () -> Resource.Semaphore.acquire sem));
  Sim.schedule_after sim (Time.ms 5) (fun () ->
      Alcotest.(check int) "one waiter" 1 (Resource.Semaphore.waiting sem));
  Sim.run sim

let mutex_exclusion () =
  let sim = Sim.create () in
  let mutex = Resource.Mutex.create sim in
  let inside = ref 0 and max_inside = ref 0 in
  let worker () =
    Resource.Mutex.with_lock mutex (fun () ->
        incr inside;
        max_inside := max !max_inside !inside;
        Process.sleep (Time.ms 1);
        decr inside)
  in
  for _ = 1 to 4 do
    ignore (Process.spawn sim worker)
  done;
  Sim.run sim;
  Alcotest.(check int) "never two holders" 1 !max_inside

let mutex_releases_on_exception () =
  let sim = Sim.create () in
  let mutex = Resource.Mutex.create sim in
  let second_ran = ref false in
  ignore
    (Process.spawn sim (fun () ->
         try Resource.Mutex.with_lock mutex (fun () -> failwith "inner")
         with Failure _ -> ()));
  ignore
    (Process.spawn sim (fun () ->
         Resource.Mutex.with_lock mutex (fun () -> second_ran := true)));
  Sim.run sim;
  Alcotest.(check bool) "lock recovered after exception" true !second_ran

let condition_signal_wakes_one () =
  let sim = Sim.create () in
  let cond = Resource.Condition.create sim in
  let woken = ref 0 in
  for _ = 1 to 3 do
    ignore
      (Process.spawn sim (fun () ->
           Resource.Condition.wait cond;
           incr woken))
  done;
  Sim.schedule_after sim (Time.ms 1) (fun () -> Resource.Condition.signal cond);
  Sim.schedule_after sim (Time.ms 2) (fun () ->
      Alcotest.(check int) "exactly one" 1 !woken;
      Alcotest.(check int) "two still waiting" 2 (Resource.Condition.waiting cond));
  Sim.run sim

let condition_broadcast_wakes_all () =
  let sim = Sim.create () in
  let cond = Resource.Condition.create sim in
  let woken = ref 0 in
  for _ = 1 to 3 do
    ignore
      (Process.spawn sim (fun () ->
           Resource.Condition.wait cond;
           incr woken))
  done;
  Sim.schedule_after sim (Time.ms 1) (fun () -> Resource.Condition.broadcast cond);
  Sim.run sim;
  Alcotest.(check int) "all woken" 3 !woken

let condition_rewait_not_double_woken () =
  let sim = Sim.create () in
  let cond = Resource.Condition.create sim in
  let wakes = ref 0 in
  ignore
    (Process.spawn sim (fun () ->
         Resource.Condition.wait cond;
         incr wakes;
         (* Re-arm during the broadcast: must not fire again from the
            same broadcast. *)
         Resource.Condition.wait cond;
         incr wakes));
  Sim.schedule_after sim (Time.ms 1) (fun () -> Resource.Condition.broadcast cond);
  Sim.run sim;
  Alcotest.(check int) "woken once" 1 !wakes

(* -- Channel -------------------------------------------------------- *)

let channel_send_then_recv () =
  let got =
    run_in_sim (fun sim ->
        let ch = Channel.create sim in
        Channel.send ch 7;
        Channel.recv ch)
  in
  Alcotest.(check int) "value" 7 got

let channel_recv_blocks_until_send () =
  let sim = Sim.create () in
  let got = ref 0 and when_got = ref Time.zero in
  let ch = Channel.create sim in
  ignore
    (Process.spawn sim (fun () ->
         got := Channel.recv ch;
         when_got := Sim.now sim));
  Sim.schedule_after sim (Time.ms 4) (fun () -> Channel.send ch 9);
  Sim.run sim;
  Alcotest.(check int) "value" 9 !got;
  check_span "blocked until send" (Time.ms 4) (Time.diff !when_got Time.zero)

let channel_fifo () =
  let order =
    run_in_sim (fun sim ->
        let ch = Channel.create sim in
        List.iter (Channel.send ch) [ 1; 2; 3 ];
        let first = Channel.recv ch in
        let second = Channel.recv ch in
        let third = Channel.recv ch in
        [ first; second; third ])
  in
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] order

let channel_recv_opt_and_length () =
  let sim = Sim.create () in
  let ch = Channel.create sim in
  Alcotest.(check (option int)) "empty" None (Channel.recv_opt ch);
  Channel.send ch 1;
  Channel.send ch 2;
  Alcotest.(check int) "length" 2 (Channel.length ch);
  Alcotest.(check (option int)) "first" (Some 1) (Channel.recv_opt ch)

(* -- Stats ----------------------------------------------------------- *)

let summary_known_values () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.(check int) "count" 8 (Stats.Summary.count s);
  check_near "mean" 5.0 (Stats.Summary.mean s);
  check_near "variance" ~tolerance:1e-9 4.571428571428571 (Stats.Summary.variance s);
  check_near "min" 2.0 (Stats.Summary.min s);
  check_near "max" 9.0 (Stats.Summary.max s)

let summary_empty () =
  let s = Stats.Summary.create () in
  check_near "mean of empty" 0. (Stats.Summary.mean s);
  Alcotest.(check bool) "min nan" true (Float.is_nan (Stats.Summary.min s))

let sample_percentiles () =
  let s = Stats.Sample.create () in
  for i = 1 to 100 do
    Stats.Sample.add s (float_of_int i)
  done;
  check_near "p0" 1.0 (Stats.Sample.percentile s 0.);
  check_near "p100" 100.0 (Stats.Sample.percentile s 100.);
  check_near "median" 50.5 (Stats.Sample.median s);
  check_near "p25" 25.75 (Stats.Sample.percentile s 25.)

let sample_interpolation () =
  let s = Stats.Sample.create () in
  List.iter (Stats.Sample.add s) [ 10.; 20. ];
  check_near "p50 interpolates" 15.0 (Stats.Sample.percentile s 50.)

let sample_growth_and_sort () =
  let s = Stats.Sample.create () in
  for i = 1000 downto 1 do
    Stats.Sample.add s (float_of_int i)
  done;
  let arr = Stats.Sample.to_array s in
  Alcotest.(check int) "size" 1000 (Array.length arr);
  check_near "sorted first" 1.0 arr.(0);
  check_near "sorted last" 1000.0 arr.(999)

let sample_empty_nan () =
  let s = Stats.Sample.create () in
  Alcotest.(check bool) "nan" true (Float.is_nan (Stats.Sample.percentile s 50.))

(* Welford's streaming moments against the direct two-pass formulas. *)
let summary_matches_direct_prop =
  prop "summary mean/stddev/min/max match direct computation"
    QCheck2.Gen.(list_size (int_range 1 300) (float_range (-1e6) 1e6))
    (fun values ->
      let s = Stats.Summary.create () in
      List.iter (Stats.Summary.add s) values;
      let n = List.length values in
      let mean = List.fold_left ( +. ) 0. values /. float_of_int n in
      let var =
        if n < 2 then 0.
        else
          List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. values
          /. float_of_int (n - 1)
      in
      let scale = Float.max 1. (Float.abs mean) in
      near ~tolerance:(1e-9 *. scale) mean (Stats.Summary.mean s)
      && near ~tolerance:(1e-6 *. Float.max 1. var) var (Stats.Summary.variance s)
      && near (sqrt var) ~tolerance:(1e-6 *. Float.max 1. (sqrt var))
           (Stats.Summary.stddev s)
      && Stats.Summary.min s = List.fold_left Float.min infinity values
      && Stats.Summary.max s = List.fold_left Float.max neg_infinity values
      && Stats.Summary.count s = n)

(* The exact-percentile contract, against an independent sort + linear
   interpolation oracle. *)
let percentile_oracle values p =
  let arr = Array.of_list values in
  Array.sort Float.compare arr;
  let n = Array.length arr in
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  let frac = rank -. float_of_int lo in
  (arr.(lo) *. (1. -. frac)) +. (arr.(hi) *. frac)

let sample_percentile_oracle_prop =
  prop "sample percentiles match a sort-based oracle"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 400) (float_range (-1e3) 1e3))
        (float_range 0. 100.))
    (fun (values, p) ->
      let s = Stats.Sample.create () in
      List.iter (Stats.Sample.add s) values;
      let expected = percentile_oracle values p in
      near ~tolerance:(1e-9 *. Float.max 1. (Float.abs expected)) expected
        (Stats.Sample.percentile s p))

(* The collector starts with 256 slots; exercise sizes that straddle the
   growth boundary so a resize bug (dropped slot, stale tail) shows up. *)
let sample_growth_boundary_prop =
  prop "sample survives the 256-slot growth boundary"
    QCheck2.Gen.(int_range 254 515)
    (fun n ->
      let s = Stats.Sample.create () in
      for i = n downto 1 do
        Stats.Sample.add s (float_of_int i)
      done;
      let arr = Stats.Sample.to_array s in
      Array.length arr = n
      && arr.(0) = 1.
      && arr.(n - 1) = float_of_int n
      && Stats.Sample.median s = percentile_oracle (Array.to_list arr) 50.)

(* Percentile queries sort in place and flip a [sorted] flag; adds after
   a query must re-invalidate it or later queries read a stale order. *)
let sample_add_after_query_prop =
  prop "adds after a percentile query are not lost to the sort cache"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 50) (float_range 0. 100.))
        (list_size (int_range 1 50) (float_range 0. 100.)))
    (fun (first, second) ->
      let s = Stats.Sample.create () in
      List.iter (Stats.Sample.add s) first;
      let _ = Stats.Sample.percentile s 50. in
      List.iter (Stats.Sample.add s) second;
      let all = first @ second in
      Stats.Sample.count s = List.length all
      && near
           (percentile_oracle all 75.)
           ~tolerance:1e-9
           (Stats.Sample.percentile s 75.)
      && near
           (List.fold_left ( +. ) 0. all /. float_of_int (List.length all))
           ~tolerance:1e-9 (Stats.Sample.mean s))

let histogram_quantiles () =
  let h = Stats.Histogram.create () in
  for _ = 1 to 90 do
    Stats.Histogram.add h 100.
  done;
  for _ = 1 to 10 do
    Stats.Histogram.add h 10_000.
  done;
  Alcotest.(check int) "count" 100 (Stats.Histogram.count h);
  let p50 = Stats.Histogram.quantile h 0.5 in
  let p99 = Stats.Histogram.quantile h 0.99 in
  Alcotest.(check bool) "p50 near 100us" true (p50 >= 90. && p50 <= 130.);
  Alcotest.(check bool) "p99 near 10ms" true (p99 >= 9_000. && p99 <= 13_000.)

let histogram_quantile_monotone_prop =
  prop "histogram quantiles are monotone"
    QCheck2.Gen.(list_size (int_range 1 100) (float_range 0.5 1e6))
    (fun values ->
      let h = Stats.Histogram.create () in
      List.iter (Stats.Histogram.add h) values;
      Stats.Histogram.quantile h 0.25 <= Stats.Histogram.quantile h 0.75)

let histogram_buckets_sum () =
  let h = Stats.Histogram.create () in
  List.iter (Stats.Histogram.add h) [ 0.5; 3.; 3.; 900.; 1e6 ];
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 (Stats.Histogram.buckets h) in
  Alcotest.(check int) "buckets account for all" 5 total

let counter_ops () =
  let c = Stats.Counter.create () in
  Stats.Counter.incr c;
  Stats.Counter.add c 4;
  Alcotest.(check int) "value" 5 (Stats.Counter.get c);
  Stats.Counter.reset c;
  Alcotest.(check int) "reset" 0 (Stats.Counter.get c)

let rate_per_sec () =
  check_near "rate" 500. (Stats.rate_per_sec 1000 (Time.sec 2));
  check_near "zero duration" 0. (Stats.rate_per_sec 1000 Time.zero_span)

(* -- Trace ----------------------------------------------------------- *)

let trace_collector () =
  let sim = Sim.create () in
  let trace = Trace.collector () in
  Trace.emit trace sim ~tag:"io" "wrote %d sectors" 8;
  Trace.emit trace sim ~tag:"commit" "txid=%d" 3;
  Alcotest.(check int) "count" 2 (Trace.count trace);
  match Trace.records trace with
  | [ first; second ] ->
      Alcotest.(check string) "tag" "io" first.Trace.tag;
      Alcotest.(check string) "message" "wrote 8 sectors" first.Trace.message;
      Alcotest.(check string) "second" "txid=3" second.Trace.message
  | records -> Alcotest.failf "expected 2 records, got %d" (List.length records)

let trace_capacity_eviction () =
  let sim = Sim.create () in
  let trace = Trace.collector ~capacity:3 () in
  for i = 1 to 5 do
    Trace.emit trace sim ~tag:"t" "%d" i
  done;
  Alcotest.(check int) "emitted total" 5 (Trace.count trace);
  Alcotest.(check (list string)) "keeps newest" [ "3"; "4"; "5" ]
    (List.map (fun r -> r.Trace.message) (Trace.records trace))

let trace_null_discards () =
  let sim = Sim.create () in
  Trace.emit Trace.null sim ~tag:"x" "ignored";
  Alcotest.(check (list reject)) "no records" []
    (List.map ignore (Trace.records Trace.null))

let suites =
  [
    ( "desim.time",
      [
        case "units" time_units;
        case "arithmetic" time_arithmetic;
        case "float conversions" time_float_conversions;
        case "comparisons" time_compare;
        case "pretty printing" time_pp;
      ] );
    ( "desim.event_queue",
      [
        case "pops in time order" queue_ordering;
        case "same-time events are FIFO" queue_fifo_same_time;
        case "peek and length" queue_peek_and_length;
        case "empty, peek and same-instant fifo" queue_empty_peek_fifo;
        case "growth beyond initial capacity" queue_growth;
        case "far-future events via overflow" queue_far_future_overflow;
        case "monotone-add contract enforced" queue_monotone_contract;
        queue_pop_sorted_prop;
        queue_stable_sort_prop;
        heap_interleaved_model_prop;
        wheel_vs_heap_prop;
      ] );
    ( "desim.sim",
      [
        case "events run in schedule order" sim_schedule_order;
        case "clock advances to event time" sim_clock_advances;
        case "run ~until stops and parks clock" sim_run_until;
        case "single stepping" sim_step;
        case "nested scheduling" sim_nested_scheduling;
        case "seed exposed" sim_seed_exposed;
      ] );
    ( "desim.rng",
      [
        case "deterministic from seed" rng_deterministic;
        case "different seeds differ" rng_seeds_differ;
        case "split gives independent stream" rng_split_independent;
        case "copy preserves state" rng_copy;
        case "golden streams pinned" rng_golden_streams;
        rng_int_bounds_prop;
        rng_float_bounds_prop;
        case "int_in inclusive bounds" rng_int_in;
        case "int is roughly uniform" rng_uniformity_rough;
        case "exponential has requested mean" rng_exponential_mean;
        case "normal has requested moments" rng_normal_moments;
        rng_shuffle_permutation_prop;
        case "pick stays in array" rng_pick;
        case "zipf bounds and skew" zipf_bounds_and_skew;
        case "zipf theta=0 is uniform" zipf_theta_zero_uniform;
        case "span in range" rng_span;
      ] );
    ( "desim.process",
      [
        case "spawned body runs" process_runs;
        case "sleep advances the clock" process_sleep_advances_clock;
        case "sleeps accumulate" process_sleeps_accumulate;
        case "self and name" process_self_name;
        case "cancel kills at next resume" process_cancel_pending_sleep;
        case "cancel runs finalisers" process_cancel_runs_finalisers;
        case "suspend delivers resumed value" process_suspend_resume_value;
        case "double resume is ignored" process_resume_twice_ignored;
        case "yield interleaves fairly" process_yield_interleaves;
        case "blocking outside a process raises" process_blocking_outside_raises;
        case "exceptions escape the run loop" process_exception_propagates;
        case "processes can spawn processes" process_spawn_from_process;
      ] );
    ( "desim.resource",
      [
        case "semaphore counts permits" semaphore_counting;
        case "semaphore blocks and wakes FIFO" semaphore_blocking_fifo;
        case "semaphore waiting count" semaphore_waiting_count;
        case "mutex provides exclusion" mutex_exclusion;
        case "mutex releases on exception" mutex_releases_on_exception;
        case "condition signal wakes one" condition_signal_wakes_one;
        case "condition broadcast wakes all" condition_broadcast_wakes_all;
        case "re-wait during broadcast not double-woken"
          condition_rewait_not_double_woken;
      ] );
    ( "desim.channel",
      [
        case "send then recv" channel_send_then_recv;
        case "recv blocks until send" channel_recv_blocks_until_send;
        case "fifo ordering" channel_fifo;
        case "recv_opt and length" channel_recv_opt_and_length;
      ] );
    ( "desim.stats",
      [
        case "summary on known data" summary_known_values;
        case "summary when empty" summary_empty;
        case "sample percentiles" sample_percentiles;
        case "sample interpolation" sample_interpolation;
        case "sample growth and sorting" sample_growth_and_sort;
        case "sample empty gives nan" sample_empty_nan;
        summary_matches_direct_prop;
        sample_percentile_oracle_prop;
        sample_growth_boundary_prop;
        sample_add_after_query_prop;
        case "histogram quantiles" histogram_quantiles;
        histogram_quantile_monotone_prop;
        case "histogram buckets sum to count" histogram_buckets_sum;
        case "counter" counter_ops;
        case "rate_per_sec" rate_per_sec;
      ] );
    ( "desim.trace",
      [
        case "collector records" trace_collector;
        case "capacity eviction" trace_capacity_eviction;
        case "null discards" trace_null_discards;
      ] );
  ]

(* -- Latch (appended) ----------------------------------------------------------- *)

let latch_blocks_until_zero () =
  let sim = Sim.create () in
  let latch = Resource.Latch.create sim 3 in
  let released_at = ref None in
  ignore
    (Process.spawn sim (fun () ->
         Resource.Latch.wait latch;
         released_at := Some (Sim.now sim)));
  for i = 1 to 3 do
    Sim.schedule_after sim (Time.ms i) (fun () -> Resource.Latch.count_down latch)
  done;
  Sim.run sim;
  match !released_at with
  | Some at -> check_span "released at the third count-down" (Time.ms 3) (Time.diff at Time.zero)
  | None -> Alcotest.fail "never released"

let latch_wait_after_zero_is_immediate () =
  let elapsed =
    run_in_sim (fun sim ->
        let latch = Resource.Latch.create sim 1 in
        Resource.Latch.count_down latch;
        let before = Sim.now sim in
        Resource.Latch.wait latch;
        Time.diff (Sim.now sim) before)
  in
  check_span "no wait" Time.zero_span elapsed

let latch_multiple_waiters () =
  let sim = Sim.create () in
  let latch = Resource.Latch.create sim 1 in
  let woken = ref 0 in
  for _ = 1 to 4 do
    ignore
      (Process.spawn sim (fun () ->
           Resource.Latch.wait latch;
           incr woken))
  done;
  Sim.schedule_after sim (Time.ms 1) (fun () -> Resource.Latch.count_down latch);
  Sim.run sim;
  Alcotest.(check int) "all released" 4 !woken

let latch_pending () =
  let sim = Sim.create () in
  let latch = Resource.Latch.create sim 2 in
  Alcotest.(check int) "initial" 2 (Resource.Latch.pending latch);
  Resource.Latch.count_down latch;
  Alcotest.(check int) "after one" 1 (Resource.Latch.pending latch)

let latch_suite =
  ( "desim.latch",
    [
      case "blocks until the count reaches zero" latch_blocks_until_zero;
      case "wait after zero returns immediately" latch_wait_after_zero_is_immediate;
      case "releases every waiter" latch_multiple_waiters;
      case "pending count" latch_pending;
    ] )

let suites = suites @ [ latch_suite ]

(* -- Int_table ------------------------------------------------------------ *)

(* Keys across the whole int range: small ones (so streams collide and
   tables resize), negatives, values at and past 2^31, and the
   extremes. *)
let int_table_key =
  QCheck2.Gen.(
    oneof
      [
        int_range (-300) 300;
        int;
        map (fun n -> (1 lsl 31) + n) (int_range (-2) 2);
        map (fun n -> -(1 lsl 31) + n) (int_range (-2) 2);
        oneofl [ max_int; min_int; max_int - 1; min_int + 1; 1 lsl 62 - 1 ];
      ])

let int_table_hash_prop =
  prop "int table: hash equals Hashtbl.hash" ~count:2000 int_table_key (fun key ->
      Int_table.hash key = Hashtbl.hash key)

let int_table_order_prop =
  prop "int table: fold and to_seq order equal a generic Hashtbl's" ~count:300
    ~print:QCheck2.Print.(list (pair bool int))
    QCheck2.Gen.(list_size (int_range 0 600) (pair (frequency [ (3, pure true); (1, pure false) ]) int_table_key))
    (fun ops ->
      let generic = Hashtbl.create 8 and table = Int_table.create 8 in
      List.iteri
        (fun i (replace, key) ->
          if replace then begin
            Hashtbl.replace generic key i;
            Int_table.replace table key i
          end
          else begin
            Hashtbl.remove generic key;
            Int_table.remove table key
          end)
        ops;
      let fold_generic = Hashtbl.fold (fun k v acc -> (k, v) :: acc) generic [] in
      let fold_table = Int_table.fold (fun k v acc -> (k, v) :: acc) table [] in
      fold_generic = fold_table
      && List.of_seq (Hashtbl.to_seq generic) = List.of_seq (Int_table.to_seq table)
      && Hashtbl.length generic = Int_table.length table)

let suites =
  suites @ [ ("desim.int_table", [ int_table_hash_prop; int_table_order_prop ]) ]
