(* Shared helpers for the test suite. *)

open Desim

let case name f = Alcotest.test_case name `Quick f

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec go i = i + m <= n && (String.sub haystack i m = needle || go (i + 1)) in
  go 0

(* Every property draws from one pinned seed, so each run of the suite
   checks the same cases. [QCHECK_SEED=<n>] replaces it (the CI soak
   runs the suite under random seeds this way); a failing property
   prints the seed that reproduces it. Each property gets its own state
   made from the seed, so its cases do not depend on test order. *)
let qcheck_seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | None -> 2013
  | Some s -> (
      match int_of_string_opt s with
      | Some n -> n
      | None -> failwith ("QCHECK_SEED is not an integer: " ^ s))

let prop name ?(count = 200) gen law =
  let name, speed, run =
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| qcheck_seed |])
      (QCheck2.Test.make ~name ~count gen law)
  in
  ( name,
    speed,
    fun () ->
      try run ()
      with e ->
        Printf.printf "%s failed under QCHECK_SEED=%d\n%!" name qcheck_seed;
        raise e )

(* Run a body inside a process in a fresh simulation; returns its result
   once the event queue drains. *)
let run_in_sim ?(seed = 1L) body =
  let sim = Sim.create ~seed () in
  let result = ref None in
  ignore (Process.spawn sim ~name:"test" (fun () -> result := Some (body sim)));
  Sim.run sim;
  match !result with
  | Some value -> value
  | None -> Alcotest.fail "test process did not complete"

(* Like [run_in_sim] but also hands the simulation to the caller first
   (for spawning auxiliary processes). *)
let with_sim ?(seed = 1L) setup =
  let sim = Sim.create ~seed () in
  let check = setup sim in
  Sim.run sim;
  check ()

let span_us = Time.us
let near ?(tolerance = 1e-6) expected actual = Float.abs (expected -. actual) <= tolerance

let check_near name ?(tolerance = 1e-6) expected actual =
  if not (near ~tolerance expected actual) then
    Alcotest.failf "%s: expected %g within %g, got %g" name expected tolerance actual

let check_span name expected actual =
  Alcotest.(check int) name (Time.span_to_ns expected) (Time.span_to_ns actual)
