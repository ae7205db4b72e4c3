(** Sliding-window time series over the simulation's virtual clock.

    A [Timeseries.t] keeps the samples observed during the last
    [window_ms] of virtual time and answers windowed questions: event
    rate, percentiles, mean, max. Samples that slide out of the window
    are pruned lazily on the next observation or read.

    Unlike {!Sim.Stats} (which accumulates forever), a window answers
    "how are we doing {e now}" — the shape SLO burn rates need.

    Cost, for [n] samples in the window: the samples sit in unboxed
    rings beside an ascending index of their values. {!observe} inserts
    into the index by binary search and one block move: O(log n)
    compares, O(n) bytes moved, and no allocation once the window has
    grown to its size. Each sample that expires, or is dropped at the
    [max_samples] cap, leaves the index the same way. {!count} and
    {!percentile} then cost O(1); {!values} and {!summary} walk the
    window, O(n). Memory is 24 bytes per slot, and the slots double on
    demand up to [max_samples], so a quiet window stays small. *)

type t

(** [create ~window_ms ()] makes an empty window. [max_samples]
    (default [8192]) bounds memory: beyond it the oldest samples are
    dropped even if still inside the window. *)
val create : ?max_samples:int -> window_ms:float -> unit -> t

(** Record a sample at the current virtual time. Every engine starts
    its clock at 0, so a current time earlier than the newest sample
    marks a later simulation in the same process: the window is
    cleared first, and holds only the current simulation's samples.
    Reads never clear, so a window read outside any engine (clock 0)
    still shows the last run. *)
val observe : t -> float -> unit

(** Samples currently inside the window. *)
val count : t -> int

(** Sample values currently inside the window, oldest first. *)
val values : t -> float list

(** Exact percentile (linear interpolation) over the windowed samples.
    Raises [Invalid_argument] when the window is empty or [p] is
    outside [0, 100]. *)
val percentile : t -> float -> float

type summary = {
  n : int;
  rate_per_s : float;
  mean : float;
  p50 : float;
  p99 : float;
  p999 : float;
  max : float;
}

(** Windowed summary; all-zero when the window is empty. *)
val summary : t -> summary

val clear : t -> unit
