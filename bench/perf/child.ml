(* What one fresh process measures: a set-up, a run, a ladder step or a
   traced run of one workload. The parent reads the result from the
   child's standard output, so no measurement shares a process with
   another workload's accumulated state. *)

type sample = { name : string; value : float; unit_ : string; wall : bool }

type result = {
  samples : sample list;
  checks : (string * bool * string) list;
  attempted : int;
  failed : int;
}

let v ?(wall = false) name unit_ value = { name; value; unit_; wall }
let ratio a b = if b = 0.0 then 0.0 else a /. b
let iratio a b = ratio (float_of_int a) (float_of_int b)

let timed f =
  let t0 = Monotonic_clock.now () in
  let r = f () in
  (r, Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9)

let pct stats p = if Sim.Stats.count stats = 0 then 0.0 else Sim.Stats.percentile stats p

(* Mean of the slowest [share] of the samples. *)
let tail_mean stats share =
  let a = Array.of_list (Sim.Stats.samples stats) in
  if Array.length a = 0 then 0.0
  else begin
    Array.sort (fun x y -> Float.compare y x) a;
    let k = max 1 (int_of_float (Float.ceil (share *. float_of_int (Array.length a)))) in
    Array.fold_left ( +. ) 0.0 (Array.sub a 0 k) /. float_of_int k
  end

let word_mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.0

let setup w ~seed =
  let _, secs = timed (fun () -> Runs.run w ~seed Setup) in
  { samples = [ v ~wall:true "setup_s" "s" secs ]; checks = []; attempted = 0; failed = 0 }

let step_name rate = Printf.sprintf "ladder.%grps." rate

let step w ~seed ~size ~rate =
  let r = Runs.step w ~seed size rate in
  let name = step_name rate in
  {
    samples =
      [ v (name ^ "p99_ms") "ms" (pct r.all 99.0);
        v (name ^ "failed_frac") "frac" (iratio r.errors r.arrivals) ];
    checks = [];
    attempted = r.arrivals;
    failed = r.errors;
  }

(* --- registry deltas ------------------------------------------------- *)

let count snap name =
  match List.assoc_opt name snap with Some (Obs.Metrics.Count n) -> n | _ -> 0

let hist snap name =
  match List.assoc_opt name snap with
  | Some (Obs.Metrics.Summary { total; p50; _ }) -> (total, p50)
  | _ -> (0.0, 0.0)

(* Every operation the workload issued: resolves, reads and writes. *)
let all_ops (o : Runs.outcome) = Runs.merge_stats "ops" [ o.lat; o.writes ]

let end_to_end (o : Runs.outcome) ~secs ~(gc : Gc.stat) =
  let ops = o.attempted and lat = all_ops o in
  [
    v ~wall:true "ops_per_s" "ops/s" (float_of_int ops /. secs);
    v ~wall:true "peak_heap_mb" "MB" (word_mb gc.top_heap_words);
    v "lat_p50_ms" "ms" (pct lat 50.0);
    v "lat_mean_ms" "ms" (if Sim.Stats.count lat = 0 then 0.0 else Sim.Stats.mean lat);
    v "lat_p99_ms" "ms" (pct lat 99.0);
    v "lat_tail_ms" "ms" (tail_mean lat 0.01);
    v "lat_p999_ms" "ms" (pct lat 99.9);
    v "lat_n" "count" (float_of_int (Sim.Stats.count lat));
    v "slo_ok_frac" "frac" (iratio o.slo_ok ops);
    v "failed_frac" "frac" (iratio o.failed ops);
  ]
  @
  if Sim.Stats.count o.writes = 0 then []
  else
    [
      v "read_p50_ms" "ms" (pct o.lat 50.0);
      v "read_p99_ms" "ms" (pct o.lat 99.0);
      v "write_p50_ms" "ms" (pct o.writes 50.0);
      v "write_p99_ms" "ms" (pct o.writes 99.0);
      v "converge_p99_ms" "ms" (pct o.converge 99.0);
      v "stale_reads" "count" (float_of_int o.stale_reads);
    ]

(* Per-layer counts: registry deltas over the run call, per operation. *)
let layers (o : Runs.outcome) ~secs ~before ~after ~(gc0 : Gc.stat) ~(gc1 : Gc.stat) ~live_words =
  let d name = count after name - count before name in
  let ops = o.attempted and writes = Sim.Stats.count o.writes in
  let per_op name = iratio (d name) ops in
  let per_write name = iratio (d name) writes in
  let cache_hits = d "hns.cache.marshalled.hits" + d "hns.cache.demarshalled.hits" in
  let cache_misses = d "hns.cache.marshalled.misses" + d "hns.cache.demarshalled.misses" in
  let _, hrpc_p50 = hist after "hrpc.client.call_ms" in
  let _, nsm_p50 = hist after "hns.nsm.call_ms" in
  let disk_ms, _ = hist after "store.disk.io_ms" in
  let retained =
    List.fold_left
      (fun n (_, s) -> match s with Obs.Metrics.Summary { n = k; _ } -> n + k | _ -> n)
      0 after
  in
  [
    v "sim.events_per_op" "events/op" (iratio o.events ops);
    v ~wall:true "sim.ns_per_event" "ns" (secs *. 1e9 /. float_of_int (max 1 o.events));
    v ~wall:true "gc.minor_words_per_op" "words/op"
      ((gc1.minor_words -. gc0.minor_words) /. float_of_int ops);
    v ~wall:true "gc.major_words_per_op" "words/op"
      ((gc1.major_words -. gc0.major_words) /. float_of_int ops);
    v ~wall:true "gc.major_collections" "count"
      (float_of_int (gc1.major_collections - gc0.major_collections));
    v ~wall:true "gc.live_mb_end" "MB" (word_mb live_words);
    v "obs.hist_samples_retained" "count" (float_of_int retained);
    v "transport.packets_per_op" "packets/op" (per_op "transport.netstack.packets_sent");
    v "transport.kb_per_op" "KB/op" (per_op "transport.netstack.bytes_sent" /. 1024.0);
    v "transport.drops" "count" (float_of_int (d "transport.netstack.packets_dropped"));
    v "hrpc.calls_per_op" "calls/op"
      (iratio (d "hrpc.client.calls" + d "hrpc.client.raw_calls") ops);
    v "hrpc.retries_per_op" "retries/op" (per_op "hrpc.client.retries");
    v "hrpc.errors" "count" (float_of_int (d "hrpc.client.errors"));
    v "hrpc.call_p50_ms" "ms" hrpc_p50;
    v "wire.hand_encodes_per_op" "encodes/op" (per_op "wire.codec.hand_encodes");
    v "wire.generic_fallbacks_per_op" "fallbacks/op" (per_op "wire.codec.generic_fallbacks");
    v "wire.value_materializations_per_op" "trees/op" (per_op "wire.codec.value_materializations");
    v "wire.pool_hit_frac" "frac"
      (iratio (d "wire.codec.pool_hits") (d "wire.codec.pool_hits" + d "wire.codec.pool_misses"));
    v "hns.cache_hit_frac" "frac" (iratio cache_hits (cache_hits + cache_misses));
    v "hns.agent_hit_frac" "frac" (iratio (d "hns.agent.cache_hits") (d "hns.agent.requests"));
    v "hns.agent_coalesced" "count" (float_of_int (d "hns.agent.coalesced"));
    v "hns.find_nsm_per_op" "calls/op" (per_op "hns.find_nsm.calls");
    v "hns.prefetch_hits_per_op" "hits/op" (per_op "hns.meta.prefetch_hits");
    v "hns.meta_lookups_per_op" "lookups/op" (per_op "hns.meta.lookups");
    v "hns.referral_hit_frac" "frac"
      (iratio (d "hns.meta.referral_hits")
         (d "hns.meta.referral_hits" + d "hns.meta.referral_chases"));
    v "dns.bind_qps" "q/s" o.bind_qps;
    v "dns.meta_primary_qps" "q/s" o.meta_primary_qps;
    v "dns.replica_qps" "q/s" o.replica_qps;
    v "dns.notify_per_write" "notifies/write" (per_write "dns.notify.sent");
    v "dns.ixfr_changes_per_pull" "changes/pull"
      (iratio (d "dns.secondary.delta_records") (d "dns.secondary.ixfr_applied"));
    v "dns.full_transfers" "count" (float_of_int (d "dns.secondary.full_transfers"));
    v "dns.replica_routed_frac" "frac"
      (iratio (d "dns.replica.routed") (d "hns.meta.remote_lookups"));
    v "dns.primary_fallbacks" "count" (float_of_int (d "dns.replica.primary_fallbacks"));
    v "store.fsyncs_per_write" "fsyncs/write" (per_write "store.disk.fsyncs");
    v "store.records_per_group" "records/commit"
      (iratio (d "store.wal.appends") (d "store.wal.group_commits"));
    v "store.disk_io_ms_per_write" "ms" (ratio disk_ms (float_of_int writes));
    v "store.wal_bytes_per_write" "bytes/write" (per_write "store.disk.bytes_written");
    v "store.snapshots" "count" (float_of_int (d "store.snapshot.saves"));
    v "nsm.calls_per_op" "calls/op" (per_op "hns.nsm.calls");
    v "nsm.call_p50_ms" "ms" nsm_p50;
  ]

let probe_sizes (o : Runs.outcome) =
  let window_ms = o.window_s *. 1000.0 in
  let lat = all_ops o in
  let mean = if Sim.Stats.count lat = 0 then 1.0 else Sim.Stats.mean lat in
  {
    Probes.heap_live =
      max 64 (int_of_float (Float.ceil (float_of_int o.events /. window_ms *. mean)));
    slo_window =
      List.fold_left (fun n s -> max n (Obs.Slo.window_summary s).n) 20 (Obs.Slo.all ());
    latencies = Array.of_list (Sim.Stats.samples lat);
    cache_entries = o.names;
  }

(* Wall time and peak heap after each harness call: for the load suite,
   how cost grows with the state earlier configs left behind. *)
let per_call () =
  let calls = ref [] and mark = ref (Monotonic_clock.now ()) in
  let each label =
    let now = Monotonic_clock.now () in
    let secs = Int64.to_float (Int64.sub now !mark) /. 1e9 in
    calls := (label, secs, (Gc.quick_stat ()).top_heap_words) :: !calls;
    mark := now
  in
  let samples () =
    match !calls with
    | [] | [ _ ] -> []
    | calls ->
        List.concat_map
          (fun (label, secs, heap) ->
            [ v ~wall:true ("suite." ^ label ^ ".wall_s") "s" secs;
              v ~wall:true ("suite." ^ label ^ ".peak_heap_mb") "MB" (word_mb heap) ])
          (List.rev calls)
  in
  (each, samples)

let run w ~seed ~size ~probes =
  let before = Obs.Metrics.snapshot () in
  let gc0 = Gc.quick_stat () in
  let each, calls = per_call () in
  let o, secs = timed (fun () -> Runs.run ~each w ~seed size) in
  let gc1 = Gc.quick_stat () in
  let after = Obs.Metrics.snapshot () in
  let e2e = end_to_end o ~secs ~gc:gc1 in
  let live_words = (Gc.stat ()).live_words in
  let per_layer = layers o ~secs ~before ~after ~gc0 ~gc1 ~live_words in
  let batch_ns = match size with Runs.Full -> 2e6 | _ -> 2e5 in
  let probed =
    if probes then
      List.map (fun (n, ns) -> v ~wall:true n "ns" ns) (Probes.run ~batch_ns (probe_sizes o))
    else []
  in
  let checks =
    [
      ("no failed operation", o.failed = 0, Printf.sprintf "%d of %d failed" o.failed o.attempted);
      ("no stale own-write read", o.stale_reads = 0, Printf.sprintf "%d stale" o.stale_reads);
    ]
    @ (if size = Runs.Full then
         [ ("at least 1000 latency samples", o.attempted >= 1000,
             Printf.sprintf "n = %d" o.attempted) ]
       else [])
    @ o.checks
  in
  {
    samples = e2e @ calls () @ per_layer @ probed;
    checks;
    attempted = o.attempted;
    failed = o.failed;
  }

(* --- traced run ------------------------------------------------------ *)

(* Span names folded into vself.* even when a workload never opens
   them, so every workload reports the same set. *)
let span_names =
  [ "resolve"; "import"; "find_nsm"; "find_nsm_bundle"; "find_nsm_coalesced"; "ctx_to_ns";
    "ns_to_nsm"; "nsm_to_binding"; "resolve_host"; "host_to_addr"; "hrpc_call"; "hrpc_bind";
    "hrpc_serve"; "nsm_call"; "meta_read"; "meta_write" ]

let outcomes =
  Obs.Qlog.[ Hit; Miss; Coalesced; Negative; Stale; Failover; Failed ]

type fold = {
  self_ms : (string * float) list;  (** per span name: duration minus the children's *)
  root_ms : float;
  spans : int;
  records : (Obs.Qlog.outcome * int) list;
}

let add_to assoc k x =
  (k, x +. Option.value ~default:0.0 (List.assoc_opt k assoc)) :: List.remove_assoc k assoc

let fold () =
  let spans = Obs.Span.finished () in
  let child_ms = Hashtbl.create 1024 in
  List.iter
    (fun (s : Obs.Span.span) ->
      Option.iter
        (fun p ->
          Hashtbl.replace child_ms p
            (Obs.Span.duration_ms s +. Option.value ~default:0.0 (Hashtbl.find_opt child_ms p)))
        s.parent)
    spans;
  let own (s : Obs.Span.span) =
    let children = Option.value ~default:0.0 (Hashtbl.find_opt child_ms s.id) in
    Float.max 0.0 (Obs.Span.duration_ms s -. children)
  in
  let records = Obs.Qlog.records () in
  {
    self_ms = List.fold_left (fun acc (s : Obs.Span.span) -> add_to acc s.name (own s)) [] spans;
    root_ms =
      List.fold_left
        (fun acc (s : Obs.Span.span) ->
          if s.parent = None then acc +. Obs.Span.duration_ms s else acc)
        0.0 spans;
    spans = List.length spans;
    records = List.map (fun oc -> (oc, List.length (Obs.Qlog.by_outcome oc records))) outcomes;
  }

let merge a b =
  {
    self_ms = List.fold_left (fun acc (k, x) -> add_to acc k x) a.self_ms b.self_ms;
    root_ms = a.root_ms +. b.root_ms;
    spans = a.spans + b.spans;
    records = List.map (fun (oc, n) -> (oc, n + List.assoc oc b.records)) a.records;
  }

(* One traced run, folded and cleared after every harness call so each
   load-suite config gets the whole span ring. *)
let traced_run w ~seed size =
  let acc = ref None and dropped = ref 0 in
  let each _label =
    let f = fold () in
    acc := Some (match !acc with None -> f | Some a -> merge a f);
    dropped := !dropped + Obs.Span.dropped () + Obs.Qlog.dropped ();
    Obs.Span.clear ();
    Obs.Qlog.clear ()
  in
  Obs.Span.clear ();
  Obs.Qlog.clear ();
  let o, secs = timed (fun () -> Runs.run ~each w ~seed size) in
  (o, secs, Option.get !acc, !dropped)

(* The traced window minus the same seed's traced 1 ms window: the
   warm-up is identical in both, so the difference is exactly the
   measured traffic. *)
let traced w ~seed ~size =
  Obs.Span.enable ();
  Obs.Qlog.enable ();
  let o, secs, full, dropped = traced_run w ~seed size in
  let o0, _, base, dropped0 = traced_run w ~seed Runs.Setup in
  let ops = o.attempted - o0.attempted in
  let lat_ms (o : Runs.outcome) = Sim.Stats.total o.lat +. Sim.Stats.total o.writes in
  let lat_total = lat_ms o -. lat_ms o0 in
  let self name f = Option.value ~default:0.0 (List.assoc_opt name f.self_ms) in
  let names =
    span_names
    @ List.sort_uniq compare
        (List.filter (fun n -> not (List.mem n span_names)) (List.map fst full.self_ms))
  in
  let vself =
    List.concat_map
      (fun n ->
        let ms = self n full -. self n base in
        [ v ("vself." ^ n ^ "_ms") "ms" (ratio ms (float_of_int ops));
          v ("vself." ^ n ^ "_frac") "frac" (ratio ms lat_total) ])
      names
  in
  let count f = List.fold_left (fun n (_, c) -> n + c) 0 f.records in
  let records = count full - count base in
  let qlog =
    List.map
      (fun oc ->
        let c = List.assoc oc full.records - List.assoc oc base.records in
        v ("qlog." ^ Obs.Qlog.outcome_to_string oc ^ "_frac") "frac" (iratio c records))
      outcomes
  in
  {
    samples =
      [
        v ~wall:true "ops_per_s" "ops/s" (float_of_int o.attempted /. secs);
        v "lat_p50_ms" "ms" (pct (all_ops o) 50.0);
        v "trace.covered_frac" "frac" (ratio (full.root_ms -. base.root_ms) lat_total);
        v "trace.spans_per_op" "spans/op" (iratio (full.spans - base.spans) ops);
      ]
      @ vself @ qlog;
    checks =
      [ ("no span or qlog record dropped", dropped + dropped0 = 0,
          Printf.sprintf "%d dropped" (dropped + dropped0)) ];
    attempted = o.attempted;
    failed = o.failed;
  }

(* --- wire format between child and parent ---------------------------- *)

(* Tab-separated lines on the child's stdout, each tagged [perf], so
   stray output from the program cannot be mistaken for a result.
   Values print with 17 significant digits: they round-trip exactly. *)
let to_lines r =
  let line fields = String.concat "\t" ("perf" :: fields) in
  (line [ "ops"; string_of_int r.attempted; string_of_int r.failed ]
   :: List.map
        (fun s ->
          line [ "sample"; s.name; Printf.sprintf "%.17g" s.value; s.unit_; string_of_bool s.wall ])
        r.samples)
  @ List.map (fun (n, ok, detail) -> line [ "check"; n; string_of_bool ok; detail ]) r.checks

let of_lines lines =
  List.fold_left
    (fun r l ->
      match String.split_on_char '\t' l with
      | [ "perf"; "ops"; a; f ] -> { r with attempted = int_of_string a; failed = int_of_string f }
      | [ "perf"; "sample"; name; value; unit_; wall ] ->
          let s = { name; value = float_of_string value; unit_; wall = bool_of_string wall } in
          { r with samples = r.samples @ [ s ] }
      | [ "perf"; "check"; n; ok; detail ] ->
          { r with checks = r.checks @ [ (n, bool_of_string ok, detail) ] }
      | _ -> r)
    { samples = []; checks = []; attempted = 0; failed = 0 }
    lines
