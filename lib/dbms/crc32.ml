(* Table-driven CRC-32 over plain (untagged-arithmetic) ints,
   slicing-by-eight.

   The recovery scan CRC-checks every log record and every page image,
   and the crash-surface sweep runs recovery at tens of thousands of
   boundaries — so this is a hot path. Working in boxed [Int32] costs
   an allocation per byte; native ints are wide enough to hold the
   32-bit register on every platform OCaml 5 supports, so the inner
   loop is allocation-free. Slicing-by-eight folds eight input bytes
   per iteration through eight precomputed tables — the standard
   construction: [T.(0)] is the byte-at-a-time table, and
   [T.(k+1).(n) = T.(0).(T.(k).(n) land 0xFF) lxor (T.(k).(n) lsr 8)]
   advances a value through one more zero byte. The public interface
   still speaks [int32] (the on-disk trailer format), and the digests
   are bit-identical to the byte-at-a-time implementation. *)

let mask = 0xFFFFFFFF

let tables =
  let t0 =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
        done;
        !c)
  in
  let tables = Array.make 8 t0 in
  for k = 1 to 7 do
    let prev = tables.(k - 1) in
    tables.(k) <- Array.init 256 (fun n -> t0.(prev.(n) land 0xFF) lxor (prev.(n) lsr 8))
  done;
  tables

let t0 = tables.(0)
let t1 = tables.(1)
let t2 = tables.(2)
let t3 = tables.(3)
let t4 = tables.(4)
let t5 = tables.(5)
let t6 = tables.(6)
let t7 = tables.(7)

let[@inline] byte_s s i = Char.code (String.unsafe_get s i)

external get64u : string -> int -> int64 = "%caml_string_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

(* The little-endian 64-bit word at [i]; callers split it into its two
   32-bit halves without boxing it. *)
let[@inline] dword_s s i = if Sys.big_endian then bswap64 (get64u s i) else get64u s i

(* The word updates further down are these slicing steps with the input
   bytes taken from an int instead of memory: four bytes go through
   tables 3..0, eight through 7..0. [slice_lo4] and [slice_hi4] fold the
   four bytes of a 32-bit value through tables 3..0 and 7..4. *)
let[@inline] slice_lo4 c =
  Array.unsafe_get t3 (c land 0xFF)
  lxor Array.unsafe_get t2 ((c lsr 8) land 0xFF)
  lxor Array.unsafe_get t1 ((c lsr 16) land 0xFF)
  lxor Array.unsafe_get t0 ((c lsr 24) land 0xFF)

let[@inline] slice_hi4 c =
  Array.unsafe_get t7 (c land 0xFF)
  lxor Array.unsafe_get t6 ((c lsr 8) land 0xFF)
  lxor Array.unsafe_get t5 ((c lsr 16) land 0xFF)
  lxor Array.unsafe_get t4 ((c lsr 24) land 0xFF)

(* Eight input bytes per iteration, loaded as one 64-bit word: its low
   half folds into the register and goes through tables 7..4, its high
   half through tables 3..0. *)
let update_string_raw crc0 s ~pos ~len =
  assert (pos >= 0 && len >= 0);
  let crc = ref crc0 in
  let i = ref pos in
  let stop = pos + len in
  while stop - !i >= 8 do
    let j = !i in
    let w = dword_s s j in
    crc :=
      slice_hi4 (!crc lxor (Int64.to_int w land mask))
      lxor slice_lo4 (Int64.to_int (Int64.shift_right_logical w 32));
    i := j + 8
  done;
  while !i < stop do
    crc := Array.unsafe_get t0 ((!crc lxor byte_s s !i) land 0xFF) lxor (!crc lsr 8);
    incr i
  done;
  !crc

let digest_string_raw s ~pos ~len =
  Int32.of_int (update_string_raw mask s ~pos ~len lxor mask land mask)

(* Read-only for the duration of the call, so the string view is safe. *)
let digest_bytes_raw b ~pos ~len = digest_string_raw (Bytes.unsafe_to_string b) ~pos ~len

let digest s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32.digest";
  digest_string_raw s ~pos ~len

let digest_string s = digest_string_raw s ~pos:0 ~len:(String.length s)

let digest_bytes b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.digest_bytes";
  digest_bytes_raw b ~pos ~len

(* Incremental interface over the same untagged register: the log
   append path feeds each field into the CRC as it writes it into the
   stream buffer, so no contiguous copy of the record ever exists. *)

type state = int

let init = mask

let[@inline] update_byte crc b = Array.unsafe_get t0 ((crc lxor b) land 0xFF) lxor (crc lsr 8)

let[@inline] update_u32 crc v = slice_lo4 (crc lxor (v land mask))

let[@inline] update_u64 crc v =
  slice_hi4 (crc lxor (v land mask)) lxor slice_lo4 ((v asr 32) land mask)

(* A zero byte contributes nothing to the table lookups it feeds
   ([tk.(0) = 0]), so eight zeros are one [slice_hi4] step. *)
let update_zeros crc n =
  if n < 0 then invalid_arg "Crc32.update_zeros";
  let crc = ref crc in
  for _ = 1 to n / 8 do
    crc := slice_hi4 !crc
  done;
  for _ = 1 to n land 7 do
    crc := update_byte !crc 0
  done;
  !crc

let update_string crc s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32.update_string";
  update_string_raw crc s ~pos ~len

let finish crc = crc lxor mask land mask
