(* The runtime's [caml_hash] (count 10, limit 100, seed 0) on an
   immediate: one MurmurHash3 mix of the 32-bit fold of the tagged word
   [d = 2n + 1], then the finaliser, folded to 30 bits. The fold is
   [(d >> 32) ^ (d >> 63) ^ d] on the 64-bit word; on the untagged
   63-bit [n] that is [n asr 31] for the high half and [n asr 62] for
   the sign ([d] itself does not fit an OCaml int). Products are exact
   modulo 2^63, so their low 32 bits are the runtime's. *)

let mask32 = 0xFFFF_FFFF

let[@inline] rotl32 x n = ((x lsl n) lor (x lsr (32 - n))) land mask32

let hash n =
  let d = ((n lsl 1) lor 1) lxor (n asr 31) lxor (n asr 62) in
  let k = d land mask32 in
  let k = k * 0xcc9e2d51 land mask32 in
  let k = rotl32 k 15 in
  let k = k * 0x1b873593 land mask32 in
  let h = rotl32 k 13 in
  let h = ((h * 5) + 0xe6546b64) land mask32 in
  let h = h lxor (h lsr 16) in
  let h = h * 0x85ebca6b land mask32 in
  let h = h lxor (h lsr 13) in
  let h = h * 0xc2b2ae35 land mask32 in
  let h = h lxor (h lsr 16) in
  h land 0x3FFF_FFFF

include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = hash
end)
