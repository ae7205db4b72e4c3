(* A service-level objective: a latency target plus the fraction of
   queries that must meet it, tracked both over the whole run (error
   budget) and over a sliding window of virtual time (burn rate). *)

type t = {
  slo_name : string;
  target_ms : float;
  objective : float; (* fraction that must meet the target, e.g. 0.99 *)
  lat_window : Timeseries.t; (* all windowed latencies *)
  breach_window : Timeseries.t; (* one 1.0 sample per windowed breach *)
  mutable total : int;
  mutable breaches : int;
}

let registry : (string, t) Hashtbl.t = Hashtbl.create 8

(* Tail exemplars: trace ids of queries that breached their SLO or
   landed beyond the window p99, newest first. The heavy payload (span
   tree, qlog record) is materialised lazily at export time from the
   Span / Qlog rings, so a breach costs one list cons. *)
let max_exemplars = 64

type exemplar = { ex_slo : string; ex_trace : int }

let exemplar_ring : exemplar list ref = ref []

let retain_exemplar t trace =
  if trace <> 0 && not (List.exists (fun e -> e.ex_trace = trace) !exemplar_ring)
  then begin
    exemplar_ring := { ex_slo = t.slo_name; ex_trace = trace } :: !exemplar_ring;
    exemplar_ring := List.filteri (fun i _ -> i < max_exemplars) !exemplar_ring
  end

let validate_name name =
  let ok_char = function
    | 'a' .. 'z' | '0' .. '9' | '_' | '-' -> true
    | _ -> false
  in
  if name = "" || not (String.for_all ok_char name) then
    invalid_arg
      (Printf.sprintf
         "Obs.Slo: %S is not a bare SLO name (lowercase, digits, '_', '-'; it \
          becomes the middle segment of slo.%s.* metrics)"
         name name)

let get_or_create ?(target_ms = 50.0) ?(objective = 0.99) ?(window_ms = 60_000.0)
    name =
  match Hashtbl.find_opt registry name with
  | Some t -> t
  | None ->
      validate_name name;
      if objective <= 0.0 || objective >= 1.0 then
        invalid_arg "Obs.Slo: objective must be strictly between 0 and 1";
      let t =
        {
          slo_name = name;
          target_ms;
          objective;
          lat_window = Timeseries.create ~window_ms ();
          breach_window = Timeseries.create ~window_ms ();
          total = 0;
          breaches = 0;
        }
      in
      Hashtbl.replace registry name t;
      t

let find name = Hashtbl.find_opt registry name
let all () =
  Hashtbl.fold (fun _ t acc -> t :: acc) registry []
  |> List.sort (fun a b -> String.compare a.slo_name b.slo_name)

let name t = t.slo_name
let target_ms t = t.target_ms
let objective t = t.objective
let total t = t.total
let breaches t = t.breaches

(* A query beyond the current window p99 is not an SLO breach, but it
   is a tail event worth an exemplar; only meaningful once the window
   has enough samples to make p99 honest. *)
let tail_threshold t =
  if Timeseries.count t.lat_window >= 20 then
    Some (Timeseries.percentile t.lat_window 99.0)
  else None

let observe t ?(ok = true) latency_ms =
  let breach = (not ok) || latency_ms > t.target_ms in
  let tail =
    match tail_threshold t with Some p99 -> latency_ms > p99 | None -> false
  in
  Timeseries.observe t.lat_window latency_ms;
  if breach then begin
    t.breaches <- t.breaches + 1;
    Timeseries.observe t.breach_window 1.0
  end;
  t.total <- t.total + 1;
  if breach || tail then retain_exemplar t (Span.current_trace ())

(* {1 Budget arithmetic} *)

let compliance t =
  if t.total = 0 then 1.0
  else float_of_int (t.total - t.breaches) /. float_of_int t.total

let compliant t = compliance t >= t.objective

(* Fraction of the error budget still unspent over the whole run; can
   go negative once the budget is blown. *)
let budget_remaining t =
  if t.total = 0 then 1.0
  else
    let breach_frac = float_of_int t.breaches /. float_of_int t.total in
    1.0 -. (breach_frac /. (1.0 -. t.objective))

(* Windowed burn rate: 1.0 means breaching at exactly the budgeted
   rate; above 1.0 the budget is being spent faster than allowed. *)
let burn_rate t =
  let n = Timeseries.count t.lat_window in
  if n = 0 then 0.0
  else
    let windowed_breaches = float_of_int (Timeseries.count t.breach_window) in
    windowed_breaches /. float_of_int n /. (1.0 -. t.objective)

let window_summary t = Timeseries.summary t.lat_window

(* {1 Publication} *)

(* Mirror every SLO into the metrics registry as slo.<name>.* gauges,
   so BENCH_obs.json and `hns_cli stats` pick them up with no new
   export path. *)
let publish () =
  List.iter
    (fun t ->
      let set suffix v = Metrics.set (Metrics.gauge ("slo." ^ t.slo_name ^ "." ^ suffix)) v in
      let w = window_summary t in
      set "target_ms" t.target_ms;
      set "objective" t.objective;
      set "total" (float_of_int t.total);
      set "breaches" (float_of_int t.breaches);
      set "compliance" (compliance t);
      set "budget_remaining" (budget_remaining t);
      set "burn_rate" (burn_rate t);
      set "window_n" (float_of_int w.Timeseries.n);
      set "window_rate_per_s" w.Timeseries.rate_per_s;
      set "window_p50_ms" w.Timeseries.p50;
      set "window_p99_ms" w.Timeseries.p99;
      set "window_p999_ms" w.Timeseries.p999)
    (all ())

(* {1 Exemplars} *)

let exemplar_traces () = List.map (fun e -> e.ex_trace) !exemplar_ring

let exemplar_json trace =
  let spans =
    List.filter (fun s -> s.Span.trace = trace) (Span.finished ())
  in
  let records =
    List.filter
      (fun r -> r.Qlog.trace = trace || r.Qlog.linked_trace = trace)
      (Qlog.records ())
  in
  Json.Obj
    [
      ("trace", Json.Num (float_of_int trace));
      ( "spans",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("id", Json.Num (float_of_int s.Span.id));
                   ( "parent",
                     match s.Span.parent with
                     | None -> Json.Null
                     | Some p -> Json.Num (float_of_int p) );
                   ("remote", Json.Bool s.Span.remote);
                   ("pid", Json.Num (float_of_int s.Span.pid));
                   ("name", Json.Str s.Span.name);
                   ("start_ms", Json.Num s.Span.start_ms);
                   ("end_ms", Json.Num s.Span.end_ms);
                 ])
             spans) );
      ("records", Json.List (List.map Qlog.record_json records));
    ]

let clear () =
  Hashtbl.reset registry;
  exemplar_ring := []
