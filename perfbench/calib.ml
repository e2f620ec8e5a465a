(* The host-speed reference.

   The host is shared, and its speed for allocation-heavy code with a
   large heap drifts by up to a third over minutes; a whole run is
   slower or faster together: loop, recovery and set-up alike. A fixed
   kernel, timed in the benchmark's parent process before every unit
   and again in the unit's own process just after the fork, drifts with
   it. The end-to-end host metrics are scaled by
   [reference_s / median kernel time] of their run, so they read as
   times on a host where the kernel takes [reference_s]; the log gives
   them as measured too.

   The kernel builds a balanced tree (Stdlib.Map) of 100,000 random keys
   and looks up 50,000 more: allocation, promotion and pointer chasing
   over a heap of a few MB, like the simulator's own work. It uses
   nothing from lib/, so a change to the library never changes the
   kernel's cost, only the units'. *)

module Int_map = Map.Make (Int)

let inserts = 100_000
let lookups = 50_000

(* The kernel's median time on the 2-vCPU, 2.0 GHz Xeon (Sapphire
   Rapids) virtual machine the benchmark was written on. *)
let reference_s = 0.18

let kernel () =
  let state = ref 12345 in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    !state
  in
  let map = ref Int_map.empty in
  for _ = 1 to inserts do
    map := Int_map.add (next ()) (next ()) !map
  done;
  let found = ref 0 in
  for _ = 1 to lookups do
    if Int_map.mem (next ()) !map then incr found
  done;
  Int_map.cardinal !map + !found

(* Every run of the kernel gives the same answer; checked so that it
   cannot silently do less work. *)
let expected = kernel ()

let time_s () =
  let t0 = Unix.gettimeofday () in
  let answer = kernel () in
  let dt = Unix.gettimeofday () -. t0 in
  if answer <> expected then failwith "the host-speed kernel gave a different answer";
  dt
