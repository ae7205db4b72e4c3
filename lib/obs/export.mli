(** Exporters for the metrics registry and the span tracer.

    Three audiences: a human at the CLI ({!pp_metrics},
    {!Span.pp_tree}), a log pipeline ({!metrics_json_lines}), and the
    bench trajectory ({!write_metrics_snapshot} producing
    [BENCH_obs.json], {!write_bench_json} producing [BENCH_hns.json]). *)

(** Render every registered metric as an aligned table, counters and
    gauges one per line, histograms as [n/mean/p50/p95/min/max]. *)
val pp_metrics : Format.formatter -> unit -> unit

(** The whole registry as one JSON object keyed by metric name. A
    histogram's fields are [n], [total], [mean], [p50], [p95], [p99],
    [p999], [min] and [max]; all but [n] carry an [_ms] suffix when the
    name says the histogram is in milliseconds (a segment [ms] or
    ending in [_ms], as {!Metrics} states). *)
val metrics_json : unit -> Json.t

(** One compact JSON object per line per metric
    ([{"metric":...,"type":...,...}]), for line-oriented consumers. *)
val metrics_json_lines : unit -> string

(** [write_metrics_snapshot ~path ()] publishes every SLO into the
    registry ({!Slo.publish}) and writes it as a [BENCH_obs.json]
    document: [{"schema":"hns-obs/1","metrics":{...}}]. *)
val write_metrics_snapshot : path:string -> unit -> unit

val write_bench_json : path:string -> (string * Sim.Stats.t) list -> unit

(** Spans of the global tracer as a [{"schema":"hns-spans/1",
    "spans":[...]}] document. *)
val spans_json : unit -> Json.t

(** Flight-recorder ring as a [{"schema":"hns-qlog/1",
    "records":[...]}] document. *)
val qlog_json : unit -> Json.t
