(* Measurement-window views of the Desim.Metrics registry.

   The registry observes the whole run — loader and warm-up included —
   so its histograms cannot be compared with the window-only figures the
   benchmark reports. A snapshot taken when the window opens and another
   when it closes give, by subtracting bucket counts, exactly the
   observations made inside the window. Quantiles use the registry's own
   rule: linear interpolation inside the bucket holding the rank. *)

open Desim

type snap = { count : int; sum : float; buckets : (float * float * int) list }

let empty = { count = 0; sum = 0.; buckets = [] }

let of_histogram h =
  {
    count = Metrics.Histogram.count h;
    sum = Metrics.Histogram.sum h;
    buckets = Metrics.Histogram.nonempty_buckets h;
  }

(* [diff later earlier]: both bucket lists ascend by lower bound, and a
   later snapshot of one histogram holds every bucket of an earlier one. *)
let diff later earlier =
  let rec sub acc l e =
    match (l, e) with
    | [], _ -> List.rev acc
    | rest, [] -> List.rev_append acc rest
    | ((lo, hi, n) :: l'), ((lo', _, n') :: e') ->
        if lo < lo' then sub ((lo, hi, n) :: acc) l' e
        else if n > n' then sub ((lo, hi, n - n') :: acc) l' e'
        else sub acc l' e'
  in
  {
    count = later.count - earlier.count;
    sum = later.sum -. earlier.sum;
    buckets = sub [] later.buckets earlier.buckets;
  }

let mean s = if s.count = 0 then 0. else s.sum /. float_of_int s.count

let quantile s q =
  if s.count = 0 then 0.
  else begin
    let target = Float.max 1. (q *. float_of_int s.count) in
    let rec find cum = function
      | [] -> 0.
      | (lo, hi, n) :: rest ->
          let cum' = cum + n in
          if float_of_int cum' >= target || rest = [] then
            lo +. (Float.min 1. ((target -. float_of_int cum) /. float_of_int n) *. (hi -. lo))
          else find cum' rest
    in
    find 0 s.buckets
  end

(* Every histogram and counter of a registry at one instant. *)
type registry = { hists : (string * snap) list; counters : (string * int) list }

let capture reg =
  Metrics.fold reg
    (fun acc name -> function
      | Metrics.Histogram h -> { acc with hists = (name, of_histogram h) :: acc.hists }
      | Metrics.Counter c -> { acc with counters = (name, Metrics.Counter.get c) :: acc.counters }
      | Metrics.Gauge _ -> acc)
    { hists = []; counters = [] }

let between ~opened ~closed =
  {
    hists =
      List.map
        (fun (name, s) ->
          (name, diff s (Option.value ~default:empty (List.assoc_opt name opened.hists))))
        closed.hists;
    counters =
      List.map
        (fun (name, n) ->
          (name, n - Option.value ~default:0 (List.assoc_opt name opened.counters)))
        closed.counters;
  }

let hist r name = Option.value ~default:empty (List.assoc_opt name r.hists)

(* The histograms whose name starts with [prefix], merged. Bucket lists of
   one layout merge by adding counts of equal lower bounds. *)
let hist_prefix r prefix =
  let starts s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  let merge a b =
    let rec go acc x y =
      match (x, y) with
      | [], r | r, [] -> List.rev_append acc r
      | ((lo, hi, n) :: x'), ((lo', hi', n') :: y') ->
          if lo < lo' then go ((lo, hi, n) :: acc) x' y
          else if lo' < lo then go ((lo', hi', n') :: acc) x y'
          else go ((lo, hi, n + n') :: acc) x' y'
    in
    { count = a.count + b.count; sum = a.sum +. b.sum; buckets = go [] a.buckets b.buckets }
  in
  List.fold_left
    (fun acc (name, s) -> if starts name then merge acc s else acc)
    empty r.hists

let counter r name = Option.value ~default:0 (List.assoc_opt name r.counters)
