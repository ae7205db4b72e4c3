(** Zipf-distributed sampling over ranks 0..n-1.

    Drives the locality experiments: "Further work on the dynamic
    cache hit ratios achieved in practice will be required" — the
    hit-ratio sweep bench samples query streams whose locality is
    controlled by the Zipf exponent [s] ([s = 0] is uniform; larger
    [s] is more skewed). *)

type t

(** [create ~n ~s] precomputes the CDF. Requires [n > 0], [s >= 0]. *)
val create : n:int -> s:float -> t

(** Sample a rank in [0, n). *)
val sample : t -> Sim.Rng.t -> int

(** Probability of rank [k]. *)
val pmf : t -> int -> float
