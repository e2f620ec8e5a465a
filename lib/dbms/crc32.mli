(** CRC-32 (IEEE 802.3 polynomial, the zlib/ethernet variant).

    Used to detect torn log records and corrupt page images after a
    crash. *)

val digest : string -> pos:int -> len:int -> int32
val digest_string : string -> int32
val digest_bytes : bytes -> pos:int -> len:int -> int32

(** {2 Incremental digesting}

    The same CRC computed piecewise, for producers that stream a record
    into a buffer field by field ({!Log_record.encode_into}): the state
    is an untagged native int, every operation is allocation-free, and
    [finish (update ... init)] is bit-identical to the one-shot
    {!digest} of the concatenated bytes. *)

type state = int
(** Raw (pre-inversion) CRC register. *)

val init : state

val update_byte : state -> int -> state
(** Fold one byte (low 8 bits of the argument) into the digest. *)

val update_string : state -> string -> pos:int -> len:int -> state

(** {3 Word updates}

    Fold a fixed-width integer field as its little-endian bytes — the
    bytes [Buffer.add_int32_le]/[add_int64_le] write — in one
    table-sliced step instead of one table step per byte. Each equals
    folding {!update_byte} over the same bytes. *)

val update_u32 : state -> int -> state
(** The low 32 bits of the argument, as 4 little-endian bytes. *)

val update_u64 : state -> int -> state
(** The argument as the 8 little-endian bytes of [Int64.of_int v]
    (sign-extended). *)

val update_zeros : state -> int -> state
(** [update_zeros s n] folds [n] zero bytes, eight per step, without
    reading them from memory. Raises [Invalid_argument] if [n < 0]. *)

val finish : state -> int
(** The digest as a non-negative int holding the 32-bit value —
    the same bits {!digest} boxes into an [int32], minus the box. *)
