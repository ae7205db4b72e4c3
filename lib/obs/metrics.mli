(** Process-wide metrics registry.

    One global registry holds every named instrument so that any layer
    (transport, HRPC, HNS, NSMs) can account events without plumbing a
    handle through its API, and so the CLI / bench can dump a complete
    panel at the end of a run.

    Names follow the [layer.component.metric] convention, e.g.
    [transport.netstack.packets_sent] or [hns.cache.marshalled.hits].

    Instruments are cheap enough to leave always-on: callers obtain a
    handle once (one hashtable lookup, typically from a module-level
    [let]) and then pay one mutable-field update per event (one more
    for each counter an owner counter rolls up into).

    A histogram's unit is read from its name: {e virtual} milliseconds,
    the clock every paper number is quoted in, when a segment of the
    name is [ms] or ends in [_ms] ([hns.find_nsm.ms]); a count
    otherwise ([store.wal.commit_records]). {!Export} names its fields
    by that rule.

    A histogram's memory is fixed, whatever its sample count: 32 KB of
    bucket counts from its first positive sample on. Its [n], [total],
    [mean], [min] and [max] are exact. Its percentiles come from
    buckets that split each octave from 2^-30 to 2^34 into 64 equal
    parts. When every sample is [0.] or in that range, each percentile
    is within 1/128 (0.78%) of the exact one that {!Sim.Stats} would
    give. A sample below the range is counted in the first bucket, one
    above it in the last, and a sample [<= 0.] reads as [0.]. Every
    reading is clamped to [[min, max]]. *)

type counter
type gauge
type histogram

(** [counter name] returns the counter registered under [name],
    creating it at zero on first use. Raises [Invalid_argument] if
    [name] is already registered as a different kind of instrument or
    is not a dotted lowercase identifier. *)
val counter : string -> counter

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

(** {1 Owner-scoped counters}

    A component instance that needs its own numbers (one cache, one
    agent, one server) keeps {e owner} counters derived from the
    global handles. Bumping an owner counter bumps its global in the
    same call, so the per-instance count and the panel's total come
    from one instrument. Owner counters never appear in {!snapshot} or
    {!find}, and {!reset} leaves them alone. *)

(** [owned c] is a fresh zero counter under [c]'s name that rolls up
    into [c] and on up [c]'s own chain: a replica set's members roll up
    into the set's counter, and the set's into the global. *)
val owned : counter -> counter

(** An owner's counters, read by name. *)
type scope

val scope : counter list -> scope

(** [read s name] is the value of [s]'s counter [name]. Raises
    [Invalid_argument] for a name [s] does not hold, so a typo fails
    loudly instead of reading 0. *)
val read : scope -> string -> int

(** [zero c] sets [c] alone to 0; the global an owner counter rolls up
    into does not move. *)
val zero : counter -> unit

(** Same get-or-create contract as {!counter}. *)
val gauge : string -> gauge

val set : gauge -> float -> unit
val get : gauge -> float

(** Same get-or-create contract as {!counter}. *)
val histogram : string -> histogram

(** Allocates nothing. *)
val observe : histogram -> float -> unit

(** [time hist f] runs [f] and observes its duration on the virtual
    clock (no charge when called outside a simulated process — the
    observation is then [0.]). If [f] raises, the time up to the raise
    is observed and the exception goes on with its backtrace. *)
val time : histogram -> (unit -> 'a) -> 'a

(** {1 Reading the registry} *)

type sample =
  | Count of int
  | Level of float
  | Summary of {
      n : int;
      total : float;
      mean : float;
      p50 : float;
      p95 : float;
      p99 : float;
      p999 : float;
      min : float;
      max : float;
    }

(** All registered instruments with their current values, sorted by
    name. Histograms with no observations report an all-zero summary. *)
val snapshot : unit -> (string * sample) list

val find : string -> sample option

(** Structural lint over every registered name: each must have at
    least three dot-separated, non-empty segments
    ([layer.component.metric]). Returns one message per violation,
    sorted; empty means clean. (Kind clashes — the same name as two
    instrument kinds — already fail fast at registration.) *)
val lint : unit -> string list

(** Zero every registered instrument {e without} invalidating handles
    held by instrumented modules: counters and gauges go to zero,
    histograms zero their counts. Registrations and owner counters
    survive. *)
val reset : unit -> unit
