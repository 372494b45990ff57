(** Monomorphic binary min-heap: float keys, int payloads, flat
    unboxed columns.  Every operation except amortized growth is
    allocation-free.  Pop order depends only on the sequence of pushed
    keys and pops, never on the payloads: the same sequence always
    pops tied keys in the same order.  Keys must not be NaN. *)

type t

val create : unit -> t
val length : t -> int
val push : t -> float -> int -> unit

val min_key : t -> float
(** Smallest key.  Raises [Invalid_argument] on an empty heap. *)

val pop_min : t -> int
(** Remove and return the payload of the smallest key.  Raises
    [Invalid_argument] on an empty heap.  Read {!min_key} first when
    the key is needed — no pair is ever built. *)
