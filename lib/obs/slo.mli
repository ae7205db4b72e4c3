(** Service-level objectives over virtual time.

    An SLO is a latency target plus the fraction of queries that must
    meet it (the {e objective}); the slack — [1 - objective] — is the
    {e error budget}. Each observation either meets the target or
    spends budget. Two horizons are tracked:

    - the whole run: {!compliance} and {!budget_remaining};
    - a sliding window ({!Timeseries}): {!burn_rate} and windowed
      percentiles, answering "how fast are we spending budget now".

    Queries that breach the SLO — or land beyond the window's p99 —
    leave a {e tail exemplar}: their trace id is retained in a bounded
    buffer, and {!exemplar_json} reconstitutes the full span tree and
    flight-recorder records for it at export time.

    {!publish} mirrors every SLO into the {!Metrics} registry as
    [slo.<name>.*] gauges, so SLOs flow into [BENCH_obs.json] and
    [hns_cli stats] through the existing export path. *)

type t

(** [get_or_create name] returns the SLO registered under [name],
    creating it on first use with the given [target_ms] (default
    [50.]), [objective] (fraction in (0, 1), default [0.99]) and
    window span (default one virtual minute). Parameters are fixed at
    creation; later calls with different values return the original.
    Raises [Invalid_argument] for malformed names (the name becomes
    the middle segment of [slo.<name>.*] metric names) or an
    objective outside (0, 1). *)
val get_or_create :
  ?target_ms:float -> ?objective:float -> ?window_ms:float -> string -> t

val find : string -> t option

(** All registered SLOs, sorted by name. *)
val all : unit -> t list

val name : t -> string
val target_ms : t -> float
val objective : t -> float

(** [observe t ~ok latency_ms] records one query. A breach is [not ok]
    or [latency_ms] over the target. Breaches — and tail events beyond
    the window p99, once the window holds at least 20 samples — retain
    the calling fiber's current trace id as an exemplar. *)
val observe : t -> ?ok:bool -> float -> unit

val total : t -> int
val breaches : t -> int

(** Fraction of observations that met the SLO; [1.] before any. *)
val compliance : t -> float

val compliant : t -> bool

(** Unspent fraction of the error budget over the whole run; negative
    once the budget is blown, [1.] before any observation. *)
val budget_remaining : t -> float

(** Windowed breach rate relative to the budgeted rate: [1.] burns
    exactly at budget, above [1.] exhausts the budget early, [0.] with
    an empty window. *)
val burn_rate : t -> float

val window_summary : t -> Timeseries.summary

(** Write every SLO's state into the metrics registry as
    [slo.<name>.{target_ms,objective,total,breaches,compliance,
    budget_remaining,burn_rate,window_n,window_rate_per_s,
    window_p50_ms,window_p99_ms,window_p999_ms}] gauges. *)
val publish : unit -> unit

(** {1 Tail exemplars} *)

(** Trace ids retained as exemplars, newest first (at most [64],
    deduplicated). *)
val exemplar_traces : unit -> int list

(** Span tree and flight-recorder records of one retained trace,
    reconstituted from the {!Span} and {!Qlog} rings. *)
val exemplar_json : int -> Json.t

(** Drop every SLO and exemplar. *)
val clear : unit -> unit
