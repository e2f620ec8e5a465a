(* Host-cost probes of single layers, each timed on data the run itself
   produced (or at the run's own scale), outside the simulation. *)

open Desim

let now = Unix.gettimeofday

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The event queue's own cost: a bare Desim.Sim holding [population]
   self-rescheduling events, stepped [events] times. Delays cycle through
   a fixed mixed-horizon table (1 µs to ~1 ms) so the queue sees the
   spread of deadlines a run produces. *)
let queue_ns_per_event ~population ~events =
  let sim = Sim.create ~seed:1L () in
  let rng = Rng.create 7L in
  let delays = Array.init 1024 (fun _ -> Time.ns (1_000 + Rng.int rng 1_000_000)) in
  let next = ref 0 in
  let rec tick () =
    next := (!next + 1) land 1023;
    Sim.schedule_after sim delays.(!next) tick
  in
  for _ = 1 to max 1 population do
    tick ()
  done;
  let t0 = now () in
  for _ = 1 to events do
    ignore (Sim.step sim)
  done;
  (now () -. t0) *. 1e9 /. float_of_int (max 1 events)

type codec = { encode_ns : float; decode_ns : float; crc_ns_per_kib : float }

(* Encode, decode and CRC over the run's own log records. The decode must
   return every record it was given: a codec that loses records fails
   the run. *)
let codec ~limit records =
  let records = List.filteri (fun i _ -> i < limit) (List.map fst records) in
  let n = List.length records in
  let buf = Buffer.create (64 * n + 64) in
  let encode () =
    Buffer.clear buf;
    let t0 = now () in
    List.iter (fun r -> Dbms.Log_record.encode_into r buf) records;
    now () -. t0
  in
  let encode_s = median (List.init 3 (fun _ -> encode ())) in
  let stream = Buffer.contents buf in
  let decode () =
    let t0 = now () in
    let decoded = Dbms.Log_record.decode_stream stream in
    let dt = now () -. t0 in
    if List.length decoded <> n then
      failwith
        (Printf.sprintf "log codec round trip decoded %d of %d records" (List.length decoded) n);
    dt
  in
  let decode_s = median (List.init 3 (fun _ -> decode ())) in
  let len = String.length stream in
  let crc () =
    let t0 = now () in
    ignore (Dbms.Crc32.digest stream ~pos:0 ~len);
    now () -. t0
  in
  let crc_s = median (List.init 3 (fun _ -> crc ())) in
  let per x = x *. 1e9 /. float_of_int (max 1 n) in
  {
    encode_ns = per encode_s;
    decode_ns = per decode_s;
    crc_ns_per_kib = crc_s *. 1e9 /. (float_of_int (max 1 len) /. 1024.);
  }

(* Generator cost per transaction, on a separately built scenario so the
   measured run's stream is untouched. *)
let gen_ns_per_txn config ~txns =
  let built = Harness.Scenario.build config in
  let next = built.Harness.Scenario.generator.Harness.Scenario.next_txn in
  let t0 = now () in
  for _ = 1 to txns do
    ignore (next ())
  done;
  (now () -. t0) *. 1e9 /. float_of_int txns
