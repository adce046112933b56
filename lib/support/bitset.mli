(** Fixed-capacity sets of small non-negative integers, packed into
    machine words.  The representation the per-routine dataflow
    analyses use for register sets: a union or a transfer function
    touches one word per 63 registers. *)

type t

val create : int -> t
(** [create n] is the empty set over [0 .. n-1]. *)

val copy : t -> t

val mem : t -> int -> bool
(** [false] for any element outside the capacity. *)

val add : t -> int -> unit
(** The element must be below the capacity.  Only an element past
    the last word is caught (Invalid_argument), not one in the last
    word's spare bits. *)

val remove : t -> int -> unit
(** As {!add}. *)

val union_into : into:t -> t -> bool
(** [union_into ~into s] adds every element of [s] to [into] and
    reports whether [into] grew.  Both sets must have the same
    capacity. *)

val union_diff_into : into:t -> t -> minus:t -> bool
(** [union_diff_into ~into s ~minus] adds [s - minus] to [into] and
    reports whether [into] grew: the step of a gen/kill transfer
    function.  All three sets must have the same capacity. *)

val iter : (int -> unit) -> t -> unit
(** Ascending. *)

val elements : t -> int list
(** Ascending. *)
