(** Generated row contents.

    Values carry a readable prefix (useful when eyeballing recovered
    state in tests) padded with pseudo-random printable bytes to the
    requested length. *)

val make : Desim.Rng.t -> tag:string -> len:int -> string
(** Requires [len >= 1]; the tag is truncated if longer than [len]. *)

val make_id : Desim.Rng.t -> prefix:string -> int -> len:int -> string
(** [make_id rng ~prefix a ~len] is
    [make rng ~tag:(Printf.sprintf "%s%d:" prefix a) ~len], byte for
    byte and draw for draw, without building the tag. *)

val make_id2 : Desim.Rng.t -> prefix:string -> int -> int -> len:int -> string
(** The same with the tag [Printf.sprintf "%s%d.%d:" prefix a b]. *)

val make_id3 :
  Desim.Rng.t -> prefix:string -> int -> int -> int -> len:int -> string
(** The same with the tag [Printf.sprintf "%s%d.%d.%d:" prefix a b c]. *)
