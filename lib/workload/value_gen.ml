open Desim

let alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"

(* Bytes [tag_len, len) of the value: one draw each. *)
let fill_random rng buf ~tag_len =
  for i = tag_len to Bytes.length buf - 1 do
    Bytes.set buf i alphabet.[Rng.int rng (String.length alphabet)]
  done;
  Bytes.unsafe_to_string buf

let make rng ~tag ~len =
  assert (len >= 1);
  let buf = Bytes.create len in
  let tag_len = min (String.length tag) len in
  Bytes.blit_string tag 0 buf 0 tag_len;
  fill_random rng buf ~tag_len

(* -- Tags of decimal ids -------------------------------------------------

   The tag [prefix ^ "<a>.<b>.<c>:"] over the first [ids] of [a], [b],
   [c] (decimal as [string_of_int] prints them) is written straight into
   the value, cut at its length like {!make}'s. *)

let rec digits n = if n > -10 && n < 10 then 1 else 1 + digits (n / 10)
let width n = if n < 0 then 1 + digits n else digits n

let[@inline] put buf i c = if i < Bytes.length buf then Bytes.unsafe_set buf i c

(* Writes [n] ending just before [stop]; digits work on [-|n|], which
   cannot overflow. *)
let rec put_digits buf stop m =
  put buf (stop - 1) (Char.unsafe_chr (48 - (m mod 10)));
  if m <= -10 then put_digits buf (stop - 1) (m / 10)

let put_int buf pos n =
  if n < 0 then put buf pos '-';
  let stop = pos + width n in
  put_digits buf stop (if n < 0 then n else -n);
  stop

let tagged rng ~prefix ~ids a b c ~len =
  assert (len >= 1);
  let buf = Bytes.create len in
  Bytes.blit_string prefix 0 buf 0 (min (String.length prefix) len);
  let pos = put_int buf (String.length prefix) a in
  let pos =
    if ids < 2 then pos
    else begin
      put buf pos '.';
      put_int buf (pos + 1) b
    end
  in
  let pos =
    if ids < 3 then pos
    else begin
      put buf pos '.';
      put_int buf (pos + 1) c
    end
  in
  put buf pos ':';
  fill_random rng buf ~tag_len:(min (pos + 1) len)

let make_id rng ~prefix a ~len = tagged rng ~prefix ~ids:1 a 0 0 ~len
let make_id2 rng ~prefix a b ~len = tagged rng ~prefix ~ids:2 a b 0 ~len
let make_id3 rng ~prefix a b c ~len = tagged rng ~prefix ~ids:3 a b c ~len
