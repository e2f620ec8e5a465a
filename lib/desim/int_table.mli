(** Int-keyed hash tables that iterate exactly like the generic ones.

    [Hashtbl.Make] over [int] with a hash that reproduces
    [Hashtbl.hash] on every int bit for bit. Given the same sequence of
    [create], [add], [replace] and [remove] calls, a table of this
    module and a generic [Hashtbl.t] hold the same buckets in the same
    order, so [iter], [fold] and [to_seq] visit bindings in the same
    order: swapping one for the other changes no iteration-ordered
    behaviour. What it saves is the generic table's out-of-line hash
    and polymorphic key comparison on every lookup. *)

include Hashtbl.S with type key = int

val hash : int -> int
(** [hash n = Hashtbl.hash n] for every [n]. *)
