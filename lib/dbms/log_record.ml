type t =
  | Begin of { txid : int }
  | Update of { txid : int; key : int; before : string; after : string }
  | Commit of { txid : int }
  | Abort of { txid : int }
  | Checkpoint of { redo_lsn : Lsn.t }
  | Noop of { filler : int }
  | Commit_multi of { txid : int; deps : int array }
  | Abort_multi of { txid : int; deps : int array }

let magic = 0xA55A

(* Framing: a 7-byte prefix (magic, kind, len), the body, then a trailing
   CRC-32 of everything from the kind byte onwards. Keeping the CRC last
   makes its covered region contiguous, so no temporary buffer is needed
   to check it. [header_size] is the total framing overhead. *)
let prefix_size = 7
let trailer_size = 4
let header_size = prefix_size + trailer_size
let max_body = 1 lsl 20

let pp fmt = function
  | Begin { txid } -> Format.fprintf fmt "Begin(%d)" txid
  | Update { txid; key; before; after } ->
      Format.fprintf fmt "Update(txid=%d key=%d %dB->%dB)" txid key
        (String.length before) (String.length after)
  | Commit { txid } -> Format.fprintf fmt "Commit(%d)" txid
  | Abort { txid } -> Format.fprintf fmt "Abort(%d)" txid
  | Checkpoint { redo_lsn } -> Format.fprintf fmt "Checkpoint(%a)" Lsn.pp redo_lsn
  | Noop { filler } -> Format.fprintf fmt "Noop(%d)" filler
  | Commit_multi { txid; deps } ->
      Format.fprintf fmt "CommitV(txid=%d deps=[%s])" txid
        (String.concat ";" (Array.to_list (Array.map string_of_int deps)))
  | Abort_multi { txid; deps } ->
      Format.fprintf fmt "AbortV(txid=%d deps=[%s])" txid
        (String.concat ";" (Array.to_list (Array.map string_of_int deps)))

let kind_code = function
  | Begin _ -> 1
  | Update _ -> 2
  | Commit _ -> 3
  | Abort _ -> 4
  | Checkpoint _ -> 5
  | Noop _ -> 6
  | Commit_multi _ -> 7
  | Abort_multi _ -> 8

(* The multi-stream outcome records are fixed-width in the stream count:
   the engine computes a commit record's end LSN *before* appending it
   (the record's own dependency slot includes itself), which only works
   because the size does not depend on the dependency values. *)
let body_size = function
  | Begin _ | Commit _ | Abort _ -> 8
  | Update { before; after; _ } -> 8 + 8 + 4 + String.length before + 4 + String.length after
  | Checkpoint _ -> 8
  | Noop { filler } -> filler
  | Commit_multi { deps; _ } | Abort_multi { deps; _ } -> 8 + 1 + (8 * Array.length deps)

let encoded_size t = header_size + body_size t

let encode_body t body =
  let set64 pos v = Bytes.set_int64_le body pos (Int64.of_int v) in
  match t with
  | Begin { txid } | Commit { txid } | Abort { txid } -> set64 0 txid
  | Checkpoint { redo_lsn } -> set64 0 (Lsn.to_int redo_lsn)
  | Noop _ -> ()
  | Update { txid; key; before; after } ->
      set64 0 txid;
      set64 8 key;
      Bytes.set_int32_le body 16 (Int32.of_int (String.length before));
      Bytes.blit_string before 0 body 20 (String.length before);
      let after_pos = 20 + String.length before in
      Bytes.set_int32_le body after_pos (Int32.of_int (String.length after));
      Bytes.blit_string after 0 body (after_pos + 4) (String.length after)
  | Commit_multi { txid; deps } | Abort_multi { txid; deps } ->
      assert (Array.length deps <= 255);
      set64 0 txid;
      Bytes.set_uint8 body 8 (Array.length deps);
      Array.iteri (fun i dep -> set64 (9 + (8 * i)) dep) deps

let encode t =
  let blen = body_size t in
  assert (blen <= max_body);
  let buf = Bytes.make (header_size + blen) '\000' in
  let body = Bytes.make blen '\000' in
  encode_body t body;
  Bytes.set_uint16_le buf 0 magic;
  Bytes.set_uint8 buf 2 (kind_code t);
  Bytes.set_int32_le buf 3 (Int32.of_int blen);
  Bytes.blit body 0 buf prefix_size blen;
  Bytes.set_int32_le buf (prefix_size + blen)
    (Crc32.digest_bytes buf ~pos:2 ~len:(prefix_size - 2 + blen));
  Bytes.unsafe_to_string buf

(* Single-pass encoding: each field goes into the stream buffer and the
   running CRC together, little-endian, with no intermediate record
   buffer. Fixed-width fields are written a word at a time and folded
   with the CRC's word updates; the [Noop] filler is copied from a
   constant run of zeros. This is the per-append hot path of every WAL
   stream — with the buffer warm (no growth) it allocates nothing, which
   the engine bench gate checks. Loops are structured as tail recursion
   rather than closures so no environment is built. *)

let[@inline] put_u32 buf crc v =
  Buffer.add_int32_le buf (Int32.of_int v);
  Crc32.update_u32 crc v

let[@inline] put_u64 buf crc v =
  Buffer.add_int64_le buf (Int64.of_int v);
  Crc32.update_u64 crc v

let put_string buf crc s =
  Buffer.add_string buf s;
  Crc32.update_string crc s ~pos:0 ~len:(String.length s)

let zeros = String.make 256 '\000'

let rec put_zeros buf n =
  if n > 0 then begin
    let chunk = min n (String.length zeros) in
    Buffer.add_substring buf zeros 0 chunk;
    put_zeros buf (n - chunk)
  end

let rec put_deps buf crc deps i =
  if i = Array.length deps then crc
  else put_deps buf (put_u64 buf crc (Array.unsafe_get deps i)) deps (i + 1)

let encode_into t buf =
  let blen = body_size t in
  assert (blen <= max_body);
  Buffer.add_uint16_le buf magic;
  let kind = kind_code t in
  Buffer.add_uint8 buf kind;
  let crc = put_u32 buf (Crc32.update_byte Crc32.init kind) blen in
  let crc =
    match t with
    | Begin { txid } | Commit { txid } | Abort { txid } -> put_u64 buf crc txid
    | Checkpoint { redo_lsn } -> put_u64 buf crc (Lsn.to_int redo_lsn)
    | Noop { filler } ->
        put_zeros buf filler;
        Crc32.update_zeros crc filler
    | Update { txid; key; before; after } ->
        let crc = put_u64 buf crc txid in
        let crc = put_u64 buf crc key in
        let crc = put_u32 buf crc (String.length before) in
        let crc = put_string buf crc before in
        let crc = put_u32 buf crc (String.length after) in
        put_string buf crc after
    | Commit_multi { txid; deps } | Abort_multi { txid; deps } ->
        assert (Array.length deps <= 255);
        let crc = put_u64 buf crc txid in
        Buffer.add_uint8 buf (Array.length deps);
        put_deps buf (Crc32.update_byte crc (Array.length deps)) deps 0
  in
  Buffer.add_int32_le buf (Int32.of_int (Crc32.finish crc))

let u64 s pos = Int64.to_int (String.get_int64_le s pos)
let u32 s pos = Int32.to_int (String.get_int32_le s pos)

(* Returned by {!decode_at} for bytes that are not a valid record; only
   ever compared with [==] (no decoded [Noop] has a negative filler). *)
let no_record = Noop { filler = -1 }

(* Decoded fillers up to this size share one immutable value each. *)
let noops = Array.init 257 (fun filler -> Noop { filler })

(* An empty image (an insert's before-image, a delete's after-image) is
   the one shared empty string. *)
let image s ~pos ~len = if len = 0 then "" else String.sub s pos len

let decode_body kind s ~pos ~len =
  match kind with
  | 1 when len >= 8 -> Begin { txid = u64 s pos }
  | 3 when len >= 8 -> Commit { txid = u64 s pos }
  | 4 when len >= 8 -> Abort { txid = u64 s pos }
  | 5 when len >= 8 -> Checkpoint { redo_lsn = Lsn.of_int (u64 s pos) }
  | 6 -> if len < Array.length noops then noops.(len) else Noop { filler = len }
  | 2 when len >= 20 ->
      let blen = u32 s (pos + 16) in
      if blen < 0 || 20 + blen + 4 > len then no_record
      else begin
        let alen = u32 s (pos + 20 + blen) in
        if alen < 0 || 20 + blen + 4 + alen <> len then no_record
        else
          Update
            {
              txid = u64 s pos;
              key = u64 s (pos + 8);
              before = image s ~pos:(pos + 20) ~len:blen;
              after = image s ~pos:(pos + 24 + blen) ~len:alen;
            }
      end
  | (7 | 8) when len >= 9 ->
      let count = String.get_uint8 s (pos + 8) in
      if len <> 9 + (8 * count) then no_record
      else begin
        let deps = Array.init count (fun i -> u64 s (pos + 9 + (8 * i))) in
        let txid = u64 s pos in
        if kind = 7 then Commit_multi { txid; deps } else Abort_multi { txid; deps }
      end
  | _ -> no_record

let decode_at s ~pos ~limit =
  let remaining = limit - pos in
  if remaining < header_size then no_record
  else if String.get_uint16_le s pos <> magic then no_record
  else begin
    let kind = String.get_uint8 s (pos + 2) in
    let blen = u32 s (pos + 3) in
    if blen < 0 || blen > max_body || remaining < header_size + blen then no_record
    else begin
      let crc = String.get_int32_le s (pos + prefix_size + blen) in
      if Crc32.digest s ~pos:(pos + 2) ~len:(prefix_size - 2 + blen) <> crc then
        no_record
      else decode_body kind s ~pos:(pos + prefix_size) ~len:blen
    end
  end

let size_at s ~pos = header_size + u32 s (pos + 3)

let decode s ~pos =
  let record = decode_at s ~pos ~limit:(String.length s) in
  if record == no_record then None else Some (record, size_at s ~pos)

let[@tail_mod_cons] rec decode_from s pos =
  let record = decode_at s ~pos ~limit:(String.length s) in
  if record == no_record then []
  else
    let stop = pos + size_at s ~pos in
    (record, Lsn.of_int stop) :: decode_from s stop

let decode_stream s = decode_from s 0
