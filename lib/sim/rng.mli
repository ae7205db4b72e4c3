(** Deterministic pseudo-random number generation (splitmix64).

    The simulator must be fully reproducible, so nothing in this
    repository uses [Random] from the stdlib; every stochastic choice
    flows through an explicitly-seeded [Rng.t].

    The state is kept unboxed, so a draw allocates only its boxed
    result, if any: {!int} allocates nothing. *)

type t

val create : seed:int64 -> t

(** [split t] derives an independent stream, leaving [t] usable.
    Use one stream per concern so adding draws in one place does not
    perturb another. *)
val split : t -> t

(** Next raw 64-bit value. *)
val bits64 : t -> int64

(** [int t n] is uniform in [0, n); requires [n > 0]. *)
val int : t -> int -> int

(** [float t x] is uniform in [0, x). *)
val float : t -> float -> float

(** Exponentially distributed with the given mean (> 0). *)
val exponential : t -> mean:float -> float

(** In-place Fisher-Yates shuffle. *)
val shuffle : t -> 'a array -> unit

(** [pick t arr] is a uniformly chosen element; requires [arr] nonempty. *)
val pick : t -> 'a array -> 'a
