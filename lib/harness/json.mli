(** A minimal JSON writer and validating reader (no external deps).

    The bench gates ([bench/main.exe]'s gate experiments, through
    [bench/gate.ml]) serialise their reports with this and re-parse the
    emitted text to assert well-formedness. It supports exactly the
    JSON the reports need: objects, arrays, strings, numbers, booleans
    and [null] (used by bench reports to mark measurements that were
    skipped as meaningless, e.g. a parallel-vs-serial speedup on a
    single-core machine).

    Strings are written with JSON escapes; bytes from 0x80 up pass
    through raw, so UTF-8 text round-trips. A non-finite number (nan,
    infinity) has no JSON form and is written as [null]. The reader
    decodes [\uXXXX] escapes, surrogate pairs included, to UTF-8. *)

type t =
  | Obj of (string * t) list
  | Arr of t list
  | Str of string
  | Num of float
  | Bool of bool
  | Null

val to_string : t -> string
(** Serialise, followed by a trailing newline. *)

exception Parse_error of string

val of_string : string -> t
(** Parse a complete JSON document; raises {!Parse_error} on malformed
    input or trailing garbage. *)

val member : string -> t -> t option
(** [member key json] is the value of [key] when [json] is an object
    that binds it. *)

val to_num : t -> float option
val to_bool : t -> bool option
