(* The xoshiro256++ state lives in 32 bytes rather than four mutable
   [int64] fields: a stored [int64] field is boxed, so every step would
   allocate four boxes. The primitives below compile to plain loads and
   stores, and the state is private, so native byte order is fine. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* splitmix64: used only to expand a 64-bit seed into xoshiro state. *)
let splitmix_next state =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed =
  let state = ref seed in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set64 t (8 * i) (splitmix_next state)
  done;
  t

(* Inlined into every draw, so its [int64]s stay unboxed and a draw that
   returns an [int] allocates nothing. *)
let[@inline] next t =
  let s0 = get64 t 0 and s1 = get64 t 8 and s2 = get64 t 16 and s3 = get64 t 24 in
  let result = Int64.add (rotl (Int64.add s0 s3) 23) s0 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  set64 t 8 (Int64.logxor s1 s2);
  set64 t 0 (Int64.logxor s0 s3);
  set64 t 16 (Int64.logxor s2 (Int64.shift_left s1 17));
  set64 t 24 (rotl s3 45);
  result

let bits64 t = next t
let split t = create (next t)
let copy = Bytes.copy

(* Inlined so a caller that consumes the double at once (a comparison,
   an arithmetic expression) keeps it unboxed. *)
let[@inline] float t =
  (* 53 high bits give a uniform double in [0, 1). *)
  let bits = Int64.shift_right_logical (next t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

(* Rejection sampling over the positive-int range avoids modulo bias. *)
let rec int_draw t n =
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  let bound = v mod n in
  if v - bound + (n - 1) < 0 then int_draw t n else bound

let int t n =
  assert (n > 0);
  int_draw t n

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (next t) 1L = 1L

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let exponential t ~mean =
  let u = float t in
  -.mean *. log1p (-.u)

let normal t ~mu ~sigma =
  let rec nonzero () =
    let u = float t in
    if u > 0. then u else nonzero ()
  in
  let u1 = nonzero () and u2 = float t in
  mu +. (sigma *. sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2))

let span t d =
  let n = Time.span_to_ns d in
  assert (n > 0);
  Time.ns (int t n)

let exponential_span t ~mean =
  Time.span_of_float_sec (exponential t ~mean:(Time.span_to_float_sec mean))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

module Zipf = struct
  type dist = { cdf : float array }

  let create ~n ~theta =
    assert (n > 0 && theta >= 0.);
    let weights = Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) theta) in
    let total = Array.fold_left ( +. ) 0.0 weights in
    let cdf = Array.make n 0.0 in
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. (weights.(i) /. total);
      cdf.(i) <- !acc
    done;
    cdf.(n - 1) <- 1.0;
    { cdf }

  (* A loop rather than a local recursive function: the closure and the
     boxed [u] it would capture cost 8 minor words per draw, and YCSB
     draws once per operation. *)
  let sample t { cdf } =
    let u = float t in
    (* First index whose cumulative weight exceeds u. *)
    let lo = ref 0 and hi = ref (Array.length cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo
end
