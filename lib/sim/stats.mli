(** Sample accumulation and summary statistics for experiments.

    Samples are stored, so percentiles are exact. Each costs 8 bytes
    (an unboxed float in an array that doubles when full), and nothing
    is ever dropped: an always-on registry histogram holds every sample
    of the run, hundreds of thousands on a long one. [add] is amortised
    O(1). The first percentile read after a batch of adds sorts one
    copy of the samples (another 8 bytes each); later reads share it,
    O(1) each, until the next [add] or [clear]. *)

type t

val create : ?name:string -> unit -> t
val add : t -> float -> unit
val count : t -> int
val total : t -> float
val mean : t -> float

(** Population standard deviation; [0.] for fewer than two samples. *)
val stddev : t -> float

val min_value : t -> float
val max_value : t -> float

(** [percentile t p] for [p] in [0., 100.]; linear interpolation
    between closest ranks. Raises [Invalid_argument] on an empty
    accumulator or out-of-range [p]. *)
val percentile : t -> float -> float

val median : t -> float

(** All samples in insertion order. *)
val samples : t -> float list

val clear : t -> unit

(** One-line summary: name, n, mean, stddev, min, p50, p95, max. *)
val pp : Format.formatter -> t -> unit

(** {1 Histograms with fixed-width bins} *)

module Histogram : sig
  type h

  (** [create ~lo ~hi ~bins] covers [lo, hi) with [bins] equal bins
      plus underflow/overflow counters. *)
  val create : lo:float -> hi:float -> bins:int -> h

  val add : h -> float -> unit
  val counts : h -> int array
  val underflow : h -> int
  val overflow : h -> int
  val total : h -> int

  (** Render as rows of [lo..hi count ####]. *)
  val pp : Format.formatter -> h -> unit
end
