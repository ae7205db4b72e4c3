(** Process-wide metrics registry.

    One global registry holds every named instrument so that any layer
    (transport, HRPC, HNS, NSMs) can account events without plumbing a
    handle through its API, and so the CLI / bench can dump a complete
    panel at the end of a run.

    Names follow the [layer.component.metric] convention, e.g.
    [transport.netstack.packets_sent] or [hns.cache.marshalled.hits].

    Instruments are cheap enough to leave always-on: callers obtain a
    handle once (one hashtable lookup, typically from a module-level
    [let]) and then pay one mutable-field update per event (two for
    an owner counter, which also bumps its global). Latency
    histograms are backed by {!Sim.Stats} and measure {e virtual}
    milliseconds — the same clock every paper reproduction number is
    quoted in. *)

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
    agent, one network) keeps {e owner} counters derived from the
    global handles. Bumping an owner counter bumps its global in the
    same call, so the per-instance count and the panel's total come
    from one instrument. Owner counters never appear in {!snapshot} or
    {!find}, and {!reset} leaves them alone. *)

(** [owned g] is a fresh zero counter under [g]'s name that rolls up
    into [g]. *)
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

val observe : histogram -> float -> unit

(** [time hist f] runs [f] and observes its duration on the virtual
    clock (no charge when called outside a simulated process — the
    observation is then [0.]). *)
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
    histograms forget their samples. Registrations and owner counters
    survive. *)
val reset : unit -> unit
