(* Tests for the observability layer: the metrics registry, the span
   tracer, the JSON codec, and the exporters (including the real
   BENCH_hns.json writer from the bench harness). *)

open Helpers

(* --- registry ------------------------------------------------------- *)

let registry_get_or_create () =
  Obs.Metrics.reset ();
  let c1 = Obs.Metrics.counter "test.obs.requests" in
  let c2 = Obs.Metrics.counter "test.obs.requests" in
  Obs.Metrics.incr c1;
  Obs.Metrics.add c2 2;
  (* both handles name the same instrument *)
  check_int "shared counter" 3 (Obs.Metrics.value c1);
  let g = Obs.Metrics.gauge "test.obs.depth" in
  Obs.Metrics.set g 4.5;
  check_float_near "gauge" 4.5 (Obs.Metrics.get (Obs.Metrics.gauge "test.obs.depth"))

let registry_kind_mismatch () =
  ignore (Obs.Metrics.counter "test.obs.kinded");
  (match Obs.Metrics.gauge "test.obs.kinded" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "re-registering a counter as a gauge should raise");
  match Obs.Metrics.counter "Not A Valid Name" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "invalid name should raise"

let registry_snapshot_and_find () =
  Obs.Metrics.reset ();
  Obs.Metrics.incr (Obs.Metrics.counter "test.obs.snap");
  (match Obs.Metrics.find "test.obs.snap" with
  | Some (Obs.Metrics.Count 1) -> ()
  | _ -> Alcotest.fail "find should see the counter at 1");
  check_bool "absent name" true (Obs.Metrics.find "test.obs.absent" = None);
  let names = List.map fst (Obs.Metrics.snapshot ()) in
  check_bool "snapshot sorted" true (List.sort compare names = names)

let registry_reset_keeps_handles () =
  let c = Obs.Metrics.counter "test.obs.resettable" in
  Obs.Metrics.incr c;
  Obs.Metrics.reset ();
  check_int "reset zeroes" 0 (Obs.Metrics.value c);
  Obs.Metrics.incr c;
  check_int "handle survives reset" 1 (Obs.Metrics.value c)

(* --- owner-scoped counters ----------------------------------------- *)

(* Random operations over k owners of one global (n < 0 zeroes the
   owner, 1 is [incr], any other n is [add n]): the global moves by
   exactly the owners' increments and never by a zero, and each owner
   holds its increments since its last zero. *)
let scoped_rollup =
  let gen =
    QCheck.Gen.(pair (int_range 1 4) (list (pair (int_bound 3) (int_range (-1) 50))))
  in
  QCheck.Test.make ~name:"scoped counters roll up" ~count:200 (QCheck.make gen)
    (fun (k, ops) ->
      let g = Obs.Metrics.counter "test.obs.rollup" in
      let owners = Array.init k (fun _ -> Obs.Metrics.owned g) in
      let expect = Array.make k 0 and g0 = Obs.Metrics.value g and total = ref 0 in
      List.iter
        (fun (i, n) ->
          let i = i mod k in
          if n < 0 then (Obs.Metrics.zero owners.(i); expect.(i) <- 0)
          else begin
            if n = 1 then Obs.Metrics.incr owners.(i) else Obs.Metrics.add owners.(i) n;
            expect.(i) <- expect.(i) + n;
            total := !total + n
          end)
        ops;
      Obs.Metrics.value g - g0 = !total
      && Array.for_all2
           (fun c n -> Obs.Metrics.read (Obs.Metrics.scope [ c ]) "test.obs.rollup" = n)
           owners expect)

let scoped_outside_registry () =
  let g = Obs.Metrics.counter "test.obs.owned" in
  let names () = List.map fst (Obs.Metrics.snapshot ()) in
  let before = names () in
  let c = Obs.Metrics.owned g in
  let s = Obs.Metrics.scope [ c ] in
  Obs.Metrics.add c 3;
  check_bool "owners add no snapshot name" true (names () = before);
  Obs.Metrics.reset ();
  check_int "reset zeroes the global" 0 (Obs.Metrics.value g);
  check_int "reset leaves the owner" 3 (Obs.Metrics.read s "test.obs.owned");
  match Obs.Metrics.read s "test.obs.owend" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "reading a name the scope lacks should raise"

(* An owner derived from an owner: a replica set's members under the
   set's own counter. Each level sums the one below, and the global
   moves once per increment. *)
let owners_chain () =
  let g = Obs.Metrics.counter "test.obs.chain" in
  let g0 = Obs.Metrics.value g in
  let set = Obs.Metrics.owned g in
  let a = Obs.Metrics.owned set and b = Obs.Metrics.owned set in
  Obs.Metrics.incr a;
  Obs.Metrics.add b 2;
  Obs.Metrics.zero a;
  check_int "a zeroed member" 0 (Obs.Metrics.value a);
  check_int "the set sums its members" 3 (Obs.Metrics.read (Obs.Metrics.scope [ set ]) "test.obs.chain");
  check_int "the global moves once per increment" 3 (Obs.Metrics.value g - g0)

(* A registry percentile is within 1/128 of the exact one when every
   sample is 0 or from 2^-30 to 2^34 ms (metrics.mli); the factor
   absorbs the rounding of the interpolation. *)
let within_bound ~exact got =
  Float.abs (got -. exact) <= Float.abs exact /. 128.0 *. (1.0 +. 1e-9)

let histogram_percentiles () =
  Obs.Metrics.reset ();
  let h = Obs.Metrics.histogram "test.obs.latency_ms" in
  (* 1..100: exact percentiles land on sample edges *)
  for i = 1 to 100 do
    Obs.Metrics.observe h (float_of_int i)
  done;
  match Obs.Metrics.find "test.obs.latency_ms" with
  | Some (Obs.Metrics.Summary s) ->
      check_int "n" 100 s.n;
      check_float_near "mean" 50.5 s.mean;
      check_float_near "min" 1.0 s.min;
      check_float_near "max" 100.0 s.max;
      check_bool "p50 within the bound of 50.5" true (within_bound ~exact:50.5 s.p50);
      check_bool "p95 within the bound of 95.05" true (within_bound ~exact:95.05 s.p95)
  | _ -> Alcotest.fail "histogram summary expected"

(* Generated streams: plateaus, runs of 0., values spread over 1e-4 to
   1e6 ms, a single sample, all samples equal. The registry's summary
   keeps n, total, mean, min and max bit-equal to an exact [Sim.Stats]
   fed the same stream, and every percentile within the bound. *)
let histogram_matches_exact =
  let gen =
    QCheck.Gen.(
      let spread = map (fun e -> 10.0 ** e) (float_range (-4.0) 6.0) in
      let value = frequency [ (1, return 0.0); (6, spread) ] in
      let run = map2 (fun n x -> List.init n (fun _ -> x)) in
      frequency
        [
          (1, map (fun x -> [ x ]) value);
          (1, run (int_range 2 300) value);
          (6, map List.concat (list_size (int_range 1 40) (run (int_range 1 30) value)));
        ])
  in
  QCheck.Test.make ~name:"histogram: exact moments, percentiles within 1/128" ~count:300
    (QCheck.make ~print:QCheck.Print.(list float) gen)
    (fun xs ->
      Obs.Metrics.reset ();
      let h = Obs.Metrics.histogram "test.obs.bucketed_ms" and s = Sim.Stats.create () in
      List.iter
        (fun x ->
          Obs.Metrics.observe h x;
          Sim.Stats.add s x)
        xs;
      match Obs.Metrics.find "test.obs.bucketed_ms" with
      | Some (Obs.Metrics.Summary r) ->
          r.n = Sim.Stats.count s
          && same_bits r.total (Sim.Stats.total s)
          && same_bits r.mean (Sim.Stats.mean s)
          && same_bits r.min (Sim.Stats.min_value s)
          && same_bits r.max (Sim.Stats.max_value s)
          && List.for_all2
               (fun p got -> within_bound ~exact:(Sim.Stats.percentile s p) got)
               [ 50.0; 95.0; 99.0; 99.9 ] [ r.p50; r.p95; r.p99; r.p999 ]
      | _ -> false)

(* Samples over several octaves, a zero and one past the range: the
   counts array is allocated once, by the first positive sample. *)
let observe_allocates_nothing () =
  let h = Obs.Metrics.histogram "test.obs.alloc_ms" in
  let feed = List.iter (Obs.Metrics.observe h) in
  let xs = [ 0.0; 0.3; 2.0; 47.5; 1_000.0; 1e12 ] in
  feed xs;
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 / List.length xs do
    feed xs
  done;
  let words = Gc.minor_words () -. before in
  if words > 0.0 then Alcotest.failf "100,000 observes allocated %.0f minor words" words

let histogram_empty_summary () =
  Obs.Metrics.reset ();
  ignore (Obs.Metrics.histogram "test.obs.untouched_ms");
  match Obs.Metrics.find "test.obs.untouched_ms" with
  | Some (Obs.Metrics.Summary s) -> check_int "empty histogram n" 0 s.n
  | _ -> Alcotest.fail "empty histogram should still report a summary"

let time_observes_virtual_clock () =
  Obs.Metrics.reset ();
  let h = Obs.Metrics.histogram "test.obs.timed_ms" in
  let w = make_world ~hosts:1 () in
  in_sim w (fun () -> Obs.Metrics.time h (fun () -> Sim.Engine.sleep 25.0));
  (match Obs.Metrics.find "test.obs.timed_ms" with
  | Some (Obs.Metrics.Summary s) ->
      check_int "one observation" 1 s.n;
      check_float_near "virtual duration" 25.0 s.mean
  | _ -> Alcotest.fail "summary expected");
  (* outside a simulated process the clock reads 0: no crash, 0 charge *)
  Obs.Metrics.time h (fun () -> ());
  match Obs.Metrics.find "test.obs.timed_ms" with
  | Some (Obs.Metrics.Summary s) -> check_int "second observation" 2 s.n
  | _ -> Alcotest.fail "summary expected"

(* A raise inside [time] is observed once, with the time up to the
   raise, and leaves with the backtrace of the raise itself. *)
let time_observes_a_raise () =
  Obs.Metrics.reset ();
  let h = Obs.Metrics.histogram "test.obs.timed_ms" in
  let w = make_world ~hosts:1 () in
  let recording = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  let bt =
    in_sim w (fun () ->
        match
          Obs.Metrics.time h (fun () ->
              Sim.Engine.sleep 5.0;
              raise Exit)
        with
        | () -> Alcotest.fail "time should re-raise"
        | exception Exit -> Printexc.get_raw_backtrace ())
  in
  Printexc.record_backtrace recording;
  (match Obs.Metrics.find "test.obs.timed_ms" with
  | Some (Obs.Metrics.Summary s) ->
      check_int "observed once" 1 s.n;
      check_float_near "time up to the raise" 5.0 s.mean
  | _ -> Alcotest.fail "summary expected");
  let first_raise =
    Option.bind (Printexc.backtrace_slots bt) (fun slots ->
        Option.map
          (fun l -> l.Printexc.filename)
          (Printexc.Slot.location slots.(0)))
  in
  check (Alcotest.option Alcotest.string) "raised from" (Some "test/test_obs.ml") first_raise

(* [time] around a no-op inside a process allocates one boxed float a
   call. *)
let time_allocation () =
  let h = Obs.Metrics.histogram "test.obs.timed_noop_ms" in
  let e = Sim.Engine.create () and words = ref nan in
  let n = 100_000 in
  Sim.Engine.spawn e (fun () ->
      Obs.Metrics.time h ignore;
      let before = Gc.minor_words () in
      for _ = 1 to n do
        Obs.Metrics.time h ignore
      done;
      words := (Gc.minor_words () -. before) /. float_of_int n);
  Sim.Engine.run e;
  if !words > 2.001 then Alcotest.failf "time allocated %.3f minor words per call" !words

(* --- spans ---------------------------------------------------------- *)

let span_nesting () =
  Obs.Span.clear ();
  Obs.Span.enable ();
  Fun.protect ~finally:Obs.Span.disable (fun () ->
      Obs.Span.with_span "outer" ~attrs:(fun () -> [ ("k", "v") ]) (fun () ->
          Obs.Span.with_span "inner" (fun () -> Obs.Span.add_attr "hit" "true"));
      match Obs.Span.finished () with
      | [ inner; outer ] ->
          check_string "inner name" "inner" inner.Obs.Span.name;
          check_string "outer name" "outer" outer.Obs.Span.name;
          check_bool "inner parented" true (inner.Obs.Span.parent = Some outer.Obs.Span.id);
          check_bool "outer is root" true (outer.Obs.Span.parent = None);
          check_bool "attr recorded" true
            (List.mem_assoc "hit" inner.Obs.Span.attrs)
      | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans))

let span_orphan_close () =
  Obs.Span.clear ();
  Obs.Span.enable ();
  Fun.protect ~finally:Obs.Span.disable (fun () ->
      let a = Obs.Span.open_span "a" in
      let _b = Obs.Span.open_span "b" in
      let _c = Obs.Span.open_span "c" in
      (* closing [a] must also close the still-open [b] and [c] *)
      Obs.Span.close_span a;
      check_int "no open spans" 0 (List.length (Obs.Span.open_stack ()));
      check_int "all recorded" 3 (List.length (Obs.Span.finished ()));
      (* closing an unknown id is a no-op *)
      Obs.Span.close_span 9999;
      check_int "still three" 3 (List.length (Obs.Span.finished ())))

let span_disabled_is_transparent () =
  Obs.Span.clear ();
  Obs.Span.disable ();
  let r = Obs.Span.with_span "ghost" (fun () -> 42) in
  check_int "value passes through" 42 r;
  check_int "nothing recorded" 0 (List.length (Obs.Span.finished ()))

let span_exception_closes () =
  Obs.Span.clear ();
  Obs.Span.enable ();
  Fun.protect ~finally:Obs.Span.disable (fun () ->
      (try Obs.Span.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
      check_int "span closed on raise" 1 (List.length (Obs.Span.finished ()));
      check_int "stack empty" 0 (List.length (Obs.Span.open_stack ())))

(* --- JSON codec ----------------------------------------------------- *)

let json_roundtrip () =
  let doc =
    Obs.Json.Obj
      [
        ("s", Obs.Json.Str "a \"quoted\"\nline");
        ("i", Obs.Json.Num 42.0);
        ("f", Obs.Json.Num 1.5);
        ("b", Obs.Json.Bool true);
        ("n", Obs.Json.Null);
        ("l", Obs.Json.List [ Obs.Json.Num 1.0; Obs.Json.Str "x" ]);
      ]
  in
  let reparsed = Obs.Json.of_string (Obs.Json.to_string doc) in
  check_bool "compact round-trip" true (reparsed = doc);
  let reparsed = Obs.Json.of_string (Obs.Json.to_string_pretty doc) in
  check_bool "pretty round-trip" true (reparsed = doc)

let json_parse_errors () =
  List.iter
    (fun s ->
      match Obs.Json.of_string s with
      | exception Obs.Json.Parse_error _ -> ()
      | _ -> Alcotest.failf "should not parse: %s" s)
    [ "{"; "[1,]"; "{\"a\":1} trailing"; "\"unterminated"; "nul"; "" ]

let metrics_json_roundtrip () =
  Obs.Metrics.reset ();
  Obs.Metrics.add (Obs.Metrics.counter "test.obs.json_counter") 7;
  Obs.Metrics.observe (Obs.Metrics.histogram "test.obs.json_ms") 12.0;
  let doc = Obs.Json.of_string (Obs.Json.to_string (Obs.Export.metrics_json ())) in
  let counter = Obs.Json.get "test.obs.json_counter" doc in
  check_int "counter value" 7 (Obs.Json.to_int (Obs.Json.get "value" counter));
  let hist = Obs.Json.get "test.obs.json_ms" doc in
  check_int "histogram n" 1 (Obs.Json.to_int (Obs.Json.get "n" hist));
  check_float_near "histogram mean" 12.0
    (Obs.Json.to_float (Obs.Json.get "mean_ms" hist));
  (* the line-oriented form parses line by line *)
  String.split_on_char '\n' (Obs.Export.metrics_json_lines ())
  |> List.filter (fun l -> l <> "")
  |> List.iter (fun line -> ignore (Obs.Json.of_string line))

(* --- exporters ------------------------------------------------------ *)

(* A histogram's exported fields carry [_ms] only when its name says
   milliseconds: a segment [ms], or one ending in [_ms]. *)
let export_units_from_names () =
  let fields name =
    Obs.Metrics.observe (Obs.Metrics.histogram name) 3.0;
    List.map fst (Obs.Json.to_obj (Obs.Json.get name (Obs.Export.metrics_json ())))
  in
  let unitless = [ "type"; "n"; "total"; "mean"; "p50"; "p95"; "p99"; "p999"; "min"; "max" ] in
  let ms =
    [ "type"; "n"; "total_ms"; "mean_ms"; "p50_ms"; "p95_ms"; "p99_ms"; "p999_ms"; "min_ms"; "max_ms" ]
  in
  check_strings "a count" unitless (fields "test.obs.batch_records");
  check_strings "ms inside a word" unitless (fields "test.obs.msgs");
  check_strings "a _ms segment" ms (fields "test.obs.wait_ms");
  check_strings "an ms segment" ms (fields "test.obs.ms");
  check_strings "a _ms segment before the last" ms (fields "test.wait_ms.obs")

let pp_metrics_nonempty () =
  Obs.Metrics.reset ();
  Obs.Metrics.incr (Obs.Metrics.counter "test.obs.visible");
  let rendered = Format.asprintf "%a" Obs.Export.pp_metrics () in
  check_bool "table mentions the counter" true
    (let needle = "test.obs.visible" in
     let n = String.length needle and h = String.length rendered in
     let rec go i = i + n <= h && (String.sub rendered i n = needle || go (i + 1)) in
     go 0)

let bench_json_artifact () =
  (* The real writer from the bench harness: build the document, write
     it, read it back, and check the shape the trajectory depends on.
     The same runs carry the load and fan-out gates, which must pass. *)
  let dir = Filename.temp_file "hns_bench" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let _, failures = Experiments.write_json_artifacts ~dir ~n:Experiments.smoke_n () in
  check_strings "no gate failures" [] failures;
  let bench_path = Filename.concat dir "BENCH_hns.json" in
  let obs_path = Filename.concat dir "BENCH_obs.json" in
  let doc = Obs.Json.of_string (In_channel.with_open_text bench_path In_channel.input_all) in
  check_string "schema" "hns-bench/2" (Obs.Json.to_str (Obs.Json.get "schema" doc));
  let experiments = Obs.Json.to_list (Obs.Json.get "experiments" doc) in
  check_bool "has experiments" true (List.length experiments >= 4);
  let names =
    List.map (fun e -> Obs.Json.to_str (Obs.Json.get "name" e)) experiments
  in
  List.iter
    (fun expected -> check_bool expected true (List.mem expected names))
    [ "resolve.cold"; "resolve.warm"; "find_nsm.cold"; "find_nsm.warm" ];
  check_bool "chaos rows present" true
    (List.mem "chaos.failover.resolve_ms" names
    && List.mem "chaos.stale.resolve_ms" names);
  List.iter
    (fun e ->
      let name = Obs.Json.to_str (Obs.Json.get "name" e) in
      let n = Obs.Json.to_int (Obs.Json.get "n" e) in
      (* chaos, loadharness, marshal and durability rows carry their
         own sample populations (timeline resolutions / open-loop
         arrivals / the hot-shape specimen mix / per-append WAL
         latencies), not the requested repetition count *)
      let prefixed p =
        String.length name >= String.length p
        && String.sub name 0 (String.length p) = p
      in
      if
        prefixed "chaos." || prefixed "loadharness." || prefixed "marshal."
        || prefixed "durability." || prefixed "propagation.fanout."
      then
        check_bool "harness sample count" true (n > 0)
      else check_int "sample count" Experiments.smoke_n n;
      let p50 = Obs.Json.to_float (Obs.Json.get "p50_ms" e) in
      let p95 = Obs.Json.to_float (Obs.Json.get "p95_ms" e) in
      let mean = Obs.Json.to_float (Obs.Json.get "mean_ms" e) in
      (* Fan-out rows carry rates and counters that are legitimately
         zero (the replicated arm's primary QPS, pinned stale reads). *)
      if prefixed "propagation.fanout." then
        check_bool "ordered quantiles" true (p50 >= 0.0 && p95 >= p50)
      else
        check_bool "positive latencies" true (p50 > 0.0 && p95 >= p50 && mean > 0.0))
    experiments;
  (* the metrics snapshot rides along and parses too *)
  let obs = Obs.Json.of_string (In_channel.with_open_text obs_path In_channel.input_all) in
  check_string "obs schema" "hns-obs/1" (Obs.Json.to_str (Obs.Json.get "schema" obs));
  check_bool "obs has metrics" true
    (Obs.Json.to_obj (Obs.Json.get "metrics" obs) <> []);
  Sys.remove bench_path;
  Sys.remove obs_path;
  Sys.rmdir dir

let suite =
  [
    Alcotest.test_case "registry get-or-create" `Quick registry_get_or_create;
    Alcotest.test_case "registry kind mismatch" `Quick registry_kind_mismatch;
    Alcotest.test_case "registry snapshot + find" `Quick registry_snapshot_and_find;
    Alcotest.test_case "reset keeps handles" `Quick registry_reset_keeps_handles;
    qtest scoped_rollup;
    Alcotest.test_case "scoped counters outside registry" `Quick scoped_outside_registry;
    Alcotest.test_case "owners chain" `Quick owners_chain;
    Alcotest.test_case "histogram percentiles" `Quick histogram_percentiles;
    Alcotest.test_case "empty histogram summary" `Quick histogram_empty_summary;
    qtest histogram_matches_exact;
    Alcotest.test_case "observe allocates nothing" `Quick observe_allocates_nothing;
    Alcotest.test_case "time uses virtual clock" `Quick time_observes_virtual_clock;
    Alcotest.test_case "time observes a raise once" `Quick time_observes_a_raise;
    Alcotest.test_case "time allocation" `Quick time_allocation;
    Alcotest.test_case "span nesting" `Quick span_nesting;
    Alcotest.test_case "span orphan close" `Quick span_orphan_close;
    Alcotest.test_case "span disabled transparent" `Quick span_disabled_is_transparent;
    Alcotest.test_case "span closed on raise" `Quick span_exception_closes;
    Alcotest.test_case "json round-trip" `Quick json_roundtrip;
    Alcotest.test_case "json parse errors" `Quick json_parse_errors;
    Alcotest.test_case "metrics json round-trip" `Quick metrics_json_roundtrip;
    Alcotest.test_case "pp_metrics non-empty" `Quick pp_metrics_nonempty;
    Alcotest.test_case "export units from names" `Quick export_units_from_names;
    Alcotest.test_case "bench json artifact" `Quick bench_json_artifact;
  ]
