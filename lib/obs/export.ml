let pp_sample ppf (s : Metrics.sample) =
  match s with
  | Metrics.Count n -> Format.fprintf ppf "%d" n
  | Metrics.Level x -> Format.fprintf ppf "%g" x
  | Metrics.Summary { n; mean; p50; p95; p99; p999; min; max; _ } ->
      if n = 0 then Format.fprintf ppf "(no samples)"
      else
        Format.fprintf ppf
          "n=%d mean=%.2f p50=%.2f p95=%.2f p99=%.2f p999=%.2f min=%.2f max=%.2f" n
          mean p50 p95 p99 p999 min max

let pp_metrics ppf () =
  let rows = Metrics.snapshot () in
  if rows = [] then Format.fprintf ppf "(no metrics registered)@."
  else begin
    let width =
      List.fold_left (fun acc (name, _) -> Stdlib.max acc (String.length name)) 0 rows
    in
    List.iter
      (fun (name, sample) ->
        Format.fprintf ppf "%-*s  %a@." width name pp_sample sample)
      rows
  end

(* A histogram is in milliseconds when a segment of its name is [ms] or
   ends in [_ms]; its fields then say so. *)
let unit_suffix name =
  let ms seg = seg = "ms" || String.ends_with ~suffix:"_ms" seg in
  if List.exists ms (String.split_on_char '.' name) then "_ms" else ""

let sample_json name (s : Metrics.sample) =
  match s with
  | Metrics.Count n ->
      Json.Obj [ ("type", Json.Str "counter"); ("value", Json.Num (float_of_int n)) ]
  | Metrics.Level x -> Json.Obj [ ("type", Json.Str "gauge"); ("value", Json.Num x) ]
  | Metrics.Summary { n; total; mean; p50; p95; p99; p999; min; max } ->
      let u = unit_suffix name in
      Json.Obj
        (("type", Json.Str "histogram") :: ("n", Json.Num (float_of_int n))
        :: List.map
             (fun (f, x) -> (f ^ u, Json.Num x))
             [ ("total", total); ("mean", mean); ("p50", p50); ("p95", p95); ("p99", p99);
               ("p999", p999); ("min", min); ("max", max) ])

let metrics_json () =
  Json.Obj (List.map (fun (name, s) -> (name, sample_json name s)) (Metrics.snapshot ()))

let metrics_json_lines () =
  Metrics.snapshot ()
  |> List.map (fun (name, s) ->
         match sample_json name s with
         | Json.Obj fields -> Json.to_string (Json.Obj (("metric", Json.Str name) :: fields))
         | other -> Json.to_string other)
  |> String.concat "\n"

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc contents;
      output_char oc '\n')

(* Publishing SLOs first means every snapshot automatically carries
   the current slo.<name>.* gauges alongside the raw instruments. *)
let write_metrics_snapshot ~path () =
  Slo.publish ();
  write_file path
    (Json.to_string_pretty
       (Json.Obj [ ("schema", Json.Str "hns-obs/1"); ("metrics", metrics_json ()) ]))

let bench_json rows =
  let experiment (name, stats) =
    let n = Sim.Stats.count stats in
    let num f = if n = 0 then Json.Null else Json.Num f in
    let pct p = if n = 0 then 0.0 else Sim.Stats.percentile stats p in
    Json.Obj
      [
        ("name", Json.Str name);
        ("n", Json.Num (float_of_int n));
        ("mean_ms", num (Sim.Stats.mean stats));
        ("p50_ms", num (if n = 0 then 0.0 else Sim.Stats.median stats));
        ("p95_ms", num (pct 95.0));
        ("p99_ms", num (pct 99.0));
        ("p999_ms", num (pct 99.9));
        ("min_ms", num (Sim.Stats.min_value stats));
        ("max_ms", num (Sim.Stats.max_value stats));
      ]
  in
  Json.Obj
    [
      ("schema", Json.Str "hns-bench/2");
      ("experiments", Json.List (List.map experiment rows));
    ]

let write_bench_json ~path rows =
  write_file path (Json.to_string_pretty (bench_json rows))

let spans_json () =
  Json.Obj [ ("schema", Json.Str "hns-spans/1"); ("spans", Span.to_json ()) ]

let qlog_json () =
  Json.Obj [ ("schema", Json.Str "hns-qlog/1"); ("records", Qlog.to_json ()) ]
