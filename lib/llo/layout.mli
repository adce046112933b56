(** Profile-guided basic-block positioning (Pettis–Hansen [13]).

    Reorders a function's block list — the layout order codegen emits
    — so that hot edges become fall-throughs (no taken-branch penalty)
    and cold blocks sink to the end of the function (fewer i-cache
    lines touched on the hot path).

    The classic bottom-up chaining algorithm: edges are weighted
    (measured block frequencies bound the edge: we use
    [min(freq src, freq dst)], with a bias toward the conditional
    not-taken arm to break ties deterministically), sorted hottest
    first, and chains merged tail-to-head; chains are then emitted
    starting with the entry chain, hottest-first, with
    never-executed chains last.

    Without profile data ([has_profile = false] or all frequencies
    zero) the frontend's order is kept. *)

val run : Cmo_il.Func.t -> bool
(** Returns [true] when the order changed. *)
