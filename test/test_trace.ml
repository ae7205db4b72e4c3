(* Cross-hop trace propagation, the query flight recorder, and the
   windowed SLO machinery.

   The acceptance test here is the one the tentpole promises: a
   chaos-free cold resolve through the shared agent must render as ONE
   connected span tree with remote parent links across at least three
   simulated processes (the client, the agent's request fiber, and the
   NSM server), verified by walking the [spans_json] export. Around it:
   a byte-identical determinism regression, the coalesced-follower
   trace link, SLO breach exemplars, the zero-cost disabled path, and
   the metric-name lint. *)

open Helpers
module S = Workload.Scenario
module J = Obs.Json

(* [contains s sub] — naive substring search; the strings are tiny. *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let with_tracing f =
  Obs.Span.clear ();
  Obs.Qlog.clear ();
  Obs.Span.enable ();
  Obs.Qlog.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Span.disable ();
      Obs.Qlog.disable ())
    f

let fresh_agent scn =
  let hns = S.new_hns ~cache_mode:Hns.Cache.Demarshalled scn ~on:scn.S.agent_stack in
  let agent = Hns.Agent.create hns () in
  Hns.Agent.start agent;
  agent

(* One cold host-address resolve presented to the agent from a plain
   client process. Bundle and prefetch stay OFF so the resolve's
   trailing NSM data call really goes over the wire — that is the
   third process the trace must reach. *)
let cold_resolve_through_agent () =
  let scn = S.build () in
  S.in_sim scn (fun () ->
      let agent = fresh_agent scn in
      let ip =
        get_ok ~msg:"remote resolve"
          (Hns.Agent.remote_resolve_addr scn.S.client_stack
             ~agent:(Hns.Agent.binding agent)
             (Hns.Hns_name.make ~context:scn.S.bind_context
                ~name:
                  (Printf.sprintf "%s.%s"
                     (Transport.Netstack.host scn.S.client_stack)
                       .Sim.Topology.hostname scn.S.zone)))
      in
      check_bool "resolved to the client host's address" true
        (ip = Transport.Netstack.ip scn.S.client_stack);
      Hns.Agent.stop agent)

(* --- the acceptance test: one tree across >= 3 processes --- *)

type jspan = {
  j_id : int;
  j_trace : int;
  j_parent : int option;
  j_remote : bool;
  j_pid : int;
  j_name : string;
}

let parse_spans doc =
  J.to_list (J.get "spans" doc)
  |> List.map (fun s ->
         {
           j_id = J.to_int (J.get "id" s);
           j_trace = J.to_int (J.get "trace" s);
           j_parent =
             (match J.get "parent" s with
             | J.Null -> None
             | v -> Some (J.to_int v));
           j_remote = (match J.get "remote" s with
             | J.Bool b -> b
             | v -> J.to_float v <> 0.0);
           j_pid = J.to_int (J.get "pid" s);
           j_name = J.to_str (J.get "name" s);
         })

let one_tree_across_three_processes () =
  with_tracing (fun () ->
      cold_resolve_through_agent ();
      let doc = Obs.Export.spans_json () in
      check_string "spans document schema" "hns-spans/1"
        (J.to_str (J.get "schema" doc));
      let spans = parse_spans doc in
      (* The client's call is the only parentless hrpc_call: the root
         of the resolve's trace. *)
      let roots =
        List.filter (fun s -> s.j_name = "hrpc_call" && s.j_parent = None) spans
      in
      check_int "exactly one root client call" 1 (List.length roots);
      let root = List.hd roots in
      check_int "the root defines its trace id" root.j_id root.j_trace;
      let tree = List.filter (fun s -> s.j_trace = root.j_trace) spans in
      (* Connected: every non-root span's parent is in the same tree. *)
      let ids = List.map (fun s -> s.j_id) tree in
      List.iter
        (fun s ->
          if s.j_id <> root.j_id then
            match s.j_parent with
            | None -> Alcotest.failf "span %d (%s) is an orphan root" s.j_id s.j_name
            | Some p ->
                check_bool
                  (Printf.sprintf "span %d (%s) parent %d inside the tree" s.j_id
                     s.j_name p)
                  true (List.mem p ids))
        tree;
      (* The tree crosses at least three simulated processes. *)
      let pids = List.sort_uniq compare (List.map (fun s -> s.j_pid) tree) in
      check_bool
        (Printf.sprintf "tree spans >= 3 processes (got %d)" (List.length pids))
        true
        (List.length pids >= 3);
      (* The agent adopted the client's context over the wire... *)
      let serves = List.filter (fun s -> s.j_name = "hrpc_serve") tree in
      check_bool "agent-side serve remote-parented to the client's call" true
        (List.exists
           (fun s ->
             s.j_remote && s.j_parent = Some root.j_id && s.j_pid <> root.j_pid)
           serves);
      (* ... and so did the NSM server, one more hop down. *)
      check_bool "a second remote hop (the NSM server)" true
        (List.length (List.filter (fun s -> s.j_remote) serves) >= 2);
      let expect name =
        check_bool (Printf.sprintf "tree contains a %s span" name) true
          (List.exists (fun s -> s.j_name = name) tree)
      in
      List.iter expect [ "resolve"; "find_nsm"; "nsm_call" ];
      (* The flight recorder saw the same trace: the agent's record and
         the nested resolve record both carry it, with hops, wire bytes
         and servers annotated by the layers underneath. *)
      let records = Obs.Qlog.records () in
      check_bool "flight records written" true (records <> []);
      let in_trace =
        List.filter (fun r -> r.Obs.Qlog.trace = root.j_trace) records
      in
      check_bool "agent record joined the propagated trace" true
        (List.exists
           (fun r -> contains r.Obs.Qlog.name "agent-resolve:")
           in_trace);
      check_bool "a record in the trace has per-hop timings" true
        (List.exists (fun r -> Obs.Qlog.hops r <> []) in_trace);
      check_bool "a record in the trace counted wire bytes" true
        (List.exists (fun r -> r.Obs.Qlog.bytes > 0) in_trace);
      check_bool "a record in the trace names a server" true
        (List.exists (fun r -> Obs.Qlog.servers r <> []) in_trace);
      check_string "qlog document schema" "hns-qlog/1"
        (J.to_str (J.get "schema" (Obs.Export.qlog_json ()))))

(* --- determinism: same seed, byte-identical exports --- *)

let trace_run () =
  Obs.Span.clear ();
  Obs.Qlog.clear ();
  cold_resolve_through_agent ();
  (J.to_string (Obs.Export.spans_json ()), Obs.Qlog.json_lines ())

let exports_deterministic () =
  with_tracing (fun () ->
      let s1, q1 = trace_run () in
      let s2, q2 = trace_run () in
      check_bool "spans export nonempty" true (String.length s1 > 2);
      check_bool "qlog export nonempty" true (String.length q1 > 2);
      check_string "span trees render byte-identically" s1 s2;
      check_string "flight records render byte-identically" q1 q2)

(* --- stamped calls reach every server kind --- *)

let echo_sign = Wire.Idl.signature ~arg:Wire.Idl.T_string ~res:Wire.Idl.T_string

(* A traced HRPC call stamps its context into the call body, and native
   servers strip it like HRPC servers do, so the call still succeeds. *)
let stamped_call_to_native_servers () =
  with_tracing (fun () ->
      let w = make_world () in
      let sun, courier =
        in_sim w (fun () ->
            let sun = Rpc.Sunrpc.create w.stacks.(0) () in
            Rpc.Sunrpc.register sun ~prog:301 ~vers:1 ~procnum:1 ~sign:echo_sign (fun v -> v);
            Rpc.Sunrpc.start sun;
            let courier = Rpc.Courier_rpc.create w.stacks.(0) () in
            Rpc.Courier_rpc.register courier ~prog:2 ~vers:3 ~procnum:4 ~sign:echo_sign
              (fun v -> v);
            Rpc.Courier_rpc.start courier;
            let call suite server ~prog ~vers ~procnum =
              Hrpc.Client.call w.stacks.(1)
                (Hrpc.Binding.make ~suite ~server ~prog ~vers)
                ~procnum ~sign:echo_sign (Wire.Value.Str "stamped")
            in
            ( call Hrpc.Component.sunrpc_suite (Rpc.Sunrpc.addr sun) ~prog:301 ~vers:1
                ~procnum:1,
              call Hrpc.Component.courier_suite (Rpc.Courier_rpc.addr courier) ~prog:2
                ~vers:3 ~procnum:4 ))
      in
      check_bool "native sun server" true (sun = Ok (Wire.Value.Str "stamped"));
      check_bool "native courier server" true (courier = Ok (Wire.Value.Str "stamped")))

(* A call through the connection cache is an ordinary HRPC call: it is
   counted, opens hrpc_call and stamps it, so the server's hrpc_serve
   joins the caller's trace from another process. *)
let conn_cache_call_is_traced () =
  with_tracing (fun () ->
      let w = make_world () in
      let calls () =
        match Obs.Metrics.find "hrpc.client.calls" with
        | Some (Obs.Metrics.Count n) -> n
        | _ -> 0
      in
      let before = calls () in
      let r =
        in_sim w (fun () ->
            let server =
              Hrpc.Server.create w.stacks.(0) ~suite:Hrpc.Component.courier_suite ~prog:88
                ~vers:1 ()
            in
            Hrpc.Server.register server ~procnum:1 ~sign:echo_sign (fun v -> v);
            Hrpc.Server.start server;
            Hrpc.Conn_cache.call
              (Hrpc.Conn_cache.create w.stacks.(1))
              (Hrpc.Server.binding server) ~procnum:1 ~sign:echo_sign
              (Wire.Value.Str "cached"))
      in
      check_bool "cached call answers" true (r = Ok (Wire.Value.Str "cached"));
      check_int "one hrpc.client.calls" 1 (calls () - before);
      let spans = parse_spans (Obs.Export.spans_json ()) in
      match
        ( List.filter (fun s -> s.j_name = "hrpc_call") spans,
          List.filter (fun s -> s.j_name = "hrpc_serve") spans )
      with
      | [ call ], [ serve ] ->
          check_bool "serve is a remote child of the call" true
            (serve.j_remote && serve.j_parent = Some call.j_id);
          check_int "one trace" call.j_trace serve.j_trace;
          check_bool "two processes" true (call.j_pid <> serve.j_pid)
      | calls, serves ->
          Alcotest.failf "expected one hrpc_call and one hrpc_serve, got %d and %d"
            (List.length calls) (List.length serves))

(* --- coalesced followers link the leader's trace --- *)

let followers_link_leader_trace () =
  with_tracing (fun () ->
      let scn = S.build () in
      S.in_sim scn (fun () ->
          let agent = fresh_agent scn in
          let mb = Sim.Engine.Mailbox.create () in
          let waiters = 3 in
          for i = 1 to waiters do
            Sim.Engine.spawn_child ~name:(Printf.sprintf "proc%d" i) (fun () ->
                Sim.Engine.Mailbox.send mb
                  (Hns.Agent.remote_find_nsm scn.S.client_stack
                     ~agent:(Hns.Agent.binding agent) ~context:scn.S.bind_context
                     ~query_class:Hns.Query_class.hrpc_binding))
          done;
          List.init waiters (fun _ -> Sim.Engine.Mailbox.recv mb)
          |> List.iter (fun r -> ignore (get_ok ~msg:"burst find_nsm" r));
          check_int "two followers coalesced" 2
            (Obs.Metrics.read (Hns.Agent.metrics agent) "hns.agent.coalesced");
          Hns.Agent.stop agent);
      let records = Obs.Qlog.records () in
      let followers = Obs.Qlog.by_outcome Obs.Qlog.Coalesced records in
      check_int "two coalesced flight records" 2 (List.length followers);
      List.iter
        (fun f ->
          check_bool "follower links a leader trace" true
            (f.Obs.Qlog.linked_trace <> 0);
          check_bool "follower kept its own distinct trace" true
            (f.Obs.Qlog.trace <> f.Obs.Qlog.linked_trace);
          check_bool "the linked trace is the leader's record's trace" true
            (List.exists
               (fun r ->
                 r.Obs.Qlog.trace = f.Obs.Qlog.linked_trace
                 && r.Obs.Qlog.outcome <> Obs.Qlog.Coalesced)
               records))
        followers)

(* --- SLO breaches retain exemplars resolvable from qlog --- *)

let resolve_service hns scn =
  Hns.Client.resolve hns ~query_class:Hns.Query_class.hrpc_binding
    ~payload_ty:Hns.Nsm_intf.binding_payload_ty ~service:scn.S.service_name
    (Hns.Hns_name.make ~context:scn.S.bind_context ~name:scn.S.service_host)

let breach_retains_exemplar () =
  Obs.Slo.clear ();
  Fun.protect ~finally:Obs.Slo.clear (fun () ->
      with_tracing (fun () ->
          (* Pre-register the resolve SLO with an unmeetable target:
             the cold resolve must breach and leave an exemplar. *)
          ignore (Obs.Slo.get_or_create ~target_ms:0.01 "resolve");
          let scn = S.build () in
          let hns = S.new_hns scn ~on:scn.S.client_stack in
          S.in_sim scn (fun () ->
              match resolve_service hns scn with
              | Ok (Some _) -> ()
              | Ok None -> Alcotest.fail "resolve returned not-found"
              | Error e -> Alcotest.failf "resolve: %s" (Hns.Errors.to_string e));
          let slo =
            match Obs.Slo.find "resolve" with
            | Some s -> s
            | None -> Alcotest.fail "resolve SLO vanished"
          in
          check_bool "the resolve breached" true (Obs.Slo.breaches slo >= 1);
          let traces = Obs.Slo.exemplar_traces () in
          check_bool "an exemplar trace was retained" true (traces <> []);
          (* The slowest flight record cross-references a retained
             exemplar, and the exemplar reconstitutes both the span
             tree and the flight records of that trace. *)
          (match Obs.Qlog.slowest 1 (Obs.Qlog.records ()) with
          | [ slow ] ->
              check_bool "slowest record's trace resolves to an exemplar" true
                (List.mem slow.Obs.Qlog.trace traces)
          | _ -> Alcotest.fail "expected one flight record");
          let doc = Obs.Slo.exemplar_json (List.hd traces) in
          check_bool "exemplar carries the span tree" true
            (J.to_list (J.get "spans" doc) <> []);
          check_bool "exemplar carries the flight records" true
            (J.to_list (J.get "records" doc) <> [])))

(* --- windowed time series over virtual time --- *)

let timeseries_window () =
  let w = make_world ~hosts:1 () in
  in_sim w (fun () ->
      let ts = Obs.Timeseries.create ~window_ms:1_000.0 () in
      Obs.Timeseries.observe ts 10.0;
      Sim.Engine.sleep 600.0;
      Obs.Timeseries.observe ts 20.0;
      Sim.Engine.sleep 600.0;
      (* The first sample is now 1.2 virtual seconds old: expired. *)
      Obs.Timeseries.observe ts 30.0;
      let s = Obs.Timeseries.summary ts in
      check_int "expired sample pruned from the window" 2 s.Obs.Timeseries.n;
      check_float_near "p50 interpolates the survivors" 25.0 s.Obs.Timeseries.p50;
      check_float_near "max over the window" 30.0 s.Obs.Timeseries.max;
      check_float_near "rate normalises to the window span" 2.0
        s.Obs.Timeseries.rate_per_s)

(* The queue-and-sort window [Obs.Timeseries] replaced, kept as the
   reference it must match bit for bit; it reads the same virtual clock. *)
module Window_model = struct
  type t = { window_ms : float; max_samples : int; mutable q : (float * float) list }

  let create ~max_samples ~window_ms = { window_ms; max_samples; q = [] }

  let prune t =
    let horizon = Sim.Engine.time () -. t.window_ms in
    let rec go = function (at, _) :: rest when at < horizon -> go rest | q -> q in
    t.q <- go t.q

  let observe t v =
    prune t;
    t.q <- t.q @ [ (Sim.Engine.time (), v) ];
    if List.length t.q > t.max_samples then t.q <- List.tl t.q

  let values t =
    prune t;
    List.map snd t.q

  let percentile t p =
    let sorted = Array.of_list (List.sort compare (values t)) in
    let index = p /. 100.0 *. float_of_int (Array.length sorted - 1) in
    let lo_i = int_of_float (floor index) and hi_i = int_of_float (ceil index) in
    if lo_i = hi_i then sorted.(lo_i)
    else begin
      let frac = index -. float_of_int lo_i in
      sorted.(lo_i) +. (frac *. (sorted.(hi_i) -. sorted.(lo_i)))
    end

  let summary t =
    match values t with
    | [] ->
        {
          Obs.Timeseries.n = 0;
          rate_per_s = 0.0;
          mean = 0.0;
          p50 = 0.0;
          p99 = 0.0;
          p999 = 0.0;
          max = 0.0;
        }
    | vs ->
        let n = List.length vs in
        {
          Obs.Timeseries.n;
          rate_per_s = float_of_int n /. (t.window_ms /. 1000.0);
          mean = List.fold_left ( +. ) 0.0 vs /. float_of_int n;
          p50 = percentile t 50.0;
          p99 = percentile t 99.0;
          p999 = percentile t 99.9;
          max = List.fold_left Float.max neg_infinity vs;
        }
end

let same_summary (a : Obs.Timeseries.summary) (b : Obs.Timeseries.summary) =
  a.n = b.n
  && List.for_all2 same_bits
       [ a.rate_per_s; a.mean; a.p50; a.p99; a.p999; a.max ]
       [ b.rate_per_s; b.mean; b.p50; b.p99; b.p999; b.max ]

type window_op = Observe of float * float (* sleep first, then observe *) | Clear

(* Random clock advances of 0 to 2x the window (on eighths of it, so
   samples land exactly on the horizon too), values with many
   duplicates, and caps from 1 to 16 so the cap, the ring wrap-around
   and the growth of a wrapped ring all trigger. *)
let timeseries_matches_model =
  let window_ms = 100.0 in
  let op =
    QCheck.Gen.(
      frequency
        [
          ( 12,
            map2
              (fun k v -> Observe (window_ms *. float_of_int k /. 8.0, v))
              (frequency [ (3, return 0); (4, int_range 0 4); (2, int_range 0 16) ])
              gen_dup_float );
          (1, return Clear);
        ])
  in
  let print = function
    | Observe (dt, v) -> Printf.sprintf "sleep %g; observe %h" dt v
    | Clear -> "clear"
  in
  QCheck.Test.make ~name:"time series: bit-identical to the list-and-sort model" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(pair int (list print))
       QCheck.Gen.(pair (int_range 1 16) (list_size (int_range 0 80) op)))
    (fun (max_samples, ops) ->
      let engine = Sim.Engine.create () in
      let ok = ref true in
      Sim.Engine.spawn engine (fun () ->
          let ts = Obs.Timeseries.create ~max_samples ~window_ms () in
          let m = Window_model.create ~max_samples ~window_ms in
          let agrees () =
            let vs = Window_model.values m in
            Obs.Timeseries.count ts = List.length vs
            && List.equal same_bits vs (Obs.Timeseries.values ts)
            && same_summary (Window_model.summary m) (Obs.Timeseries.summary ts)
            && (vs = []
               || List.for_all
                    (fun p ->
                      same_bits (Window_model.percentile m p) (Obs.Timeseries.percentile ts p))
                    model_ps)
          in
          List.iter
            (fun op ->
              (match op with
              | Observe (dt, v) ->
                  Sim.Engine.sleep dt;
                  Obs.Timeseries.observe ts v;
                  Window_model.observe m v
              | Clear ->
                  Obs.Timeseries.clear ts;
                  m.Window_model.q <- []);
              ok := !ok && agrees ())
            ops);
      Sim.Engine.run engine;
      !ok)

(* Every engine starts its clock at 0, so samples a previous
   simulation left in a window must not pass for recent ones. *)
let slo_window_per_simulation () =
  Obs.Slo.clear ();
  Fun.protect ~finally:Obs.Slo.clear (fun () ->
      let run samples =
        let engine = Sim.Engine.create () in
        Sim.Engine.spawn engine (fun () ->
            let slo = Obs.Slo.get_or_create "rerun" in
            for _ = 1 to samples do
              Sim.Engine.sleep 10.0;
              Obs.Slo.observe slo 5.0
            done);
        Sim.Engine.run engine
      in
      run 30;
      run 7;
      let slo = Option.get (Obs.Slo.find "rerun") in
      check_int "the second run's window holds only its own samples" 7
        (Obs.Slo.window_summary slo).Obs.Timeseries.n;
      check_int "run totals still count both runs" 37 (Obs.Slo.total slo))

(* A full window answers an observation from its sorted index: no
   copy or sort of the window per call. *)
let slo_observe_allocation () =
  Obs.Slo.clear ();
  Fun.protect ~finally:Obs.Slo.clear (fun () ->
      let engine = Sim.Engine.create () in
      let per_call = ref nan in
      Sim.Engine.spawn engine (fun () ->
          let slo = Obs.Slo.get_or_create ~target_ms:50.0 "alloc" in
          let latency i = float_of_int ((i * 7919) mod 101) in
          for i = 1 to 8192 do
            Obs.Slo.observe slo (latency i);
            Sim.Engine.sleep 1.0
          done;
          check_int "window filled to its cap" 8192 (Obs.Slo.window_summary slo).Obs.Timeseries.n;
          let before = Gc.minor_words () in
          for i = 1 to 1000 do
            Obs.Slo.observe slo (latency i);
            Sim.Engine.sleep 1.0
          done;
          per_call := (Gc.minor_words () -. before) /. 1000.0);
      Sim.Engine.run engine;
      if not (!per_call <= 1000.0) then
        Alcotest.failf "Slo.observe on a full window allocated %.0f minor words per call"
          !per_call)

let slo_accounting () =
  Obs.Slo.clear ();
  Fun.protect ~finally:Obs.Slo.clear (fun () ->
      let slo = Obs.Slo.get_or_create ~target_ms:10.0 ~objective:0.9 "unit" in
      for _ = 1 to 9 do
        Obs.Slo.observe slo 5.0
      done;
      Obs.Slo.observe slo 50.0;
      check_int "total observations" 10 (Obs.Slo.total slo);
      check_int "one breach" 1 (Obs.Slo.breaches slo);
      check_float_near "compliance" 0.9 (Obs.Slo.compliance slo);
      check_bool "compliant exactly at the objective" true (Obs.Slo.compliant slo);
      check_float_near "budget spent exactly" 0.0 (Obs.Slo.budget_remaining slo);
      check_float_near "burning exactly at budget" 1.0 (Obs.Slo.burn_rate slo);
      (* An error spends budget like a slow answer does. *)
      Obs.Slo.observe slo ~ok:false 1.0;
      check_int "errors breach too" 2 (Obs.Slo.breaches slo);
      check_bool "budget now blown" true (Obs.Slo.budget_remaining slo < 0.0);
      check_bool "no longer compliant" true (not (Obs.Slo.compliant slo));
      (* Parameters are fixed at creation. *)
      let again = Obs.Slo.get_or_create ~target_ms:99.0 "unit" in
      check_float_near "later parameters ignored" 10.0 (Obs.Slo.target_ms again);
      (* Publishing mirrors the SLO into the metrics registry. *)
      Obs.Slo.publish ();
      check_float_near "published target gauge" 10.0
        (Obs.Metrics.get (Obs.Metrics.gauge "slo.unit.target_ms"));
      check_float_near "published total gauge" 11.0
        (Obs.Metrics.get (Obs.Metrics.gauge "slo.unit.total")))

(* --- the disabled path performs no work --- *)

let disabled_tracing_is_inert () =
  Obs.Span.clear ();
  Obs.Qlog.clear ();
  Obs.Span.disable ();
  Obs.Qlog.disable ();
  let attr_evals = ref 0 in
  let v =
    Obs.Span.with_span
      ~attrs:(fun () ->
        incr attr_evals;
        [ ("k", "v") ])
      "off"
      (fun () -> 17)
  in
  check_int "with_span is transparent when disabled" 17 v;
  Obs.Span.add_attr "k" "v";
  Obs.Qlog.with_query ~name:"off" ~query_class:"x" (fun () ->
      Obs.Qlog.note_outcome Obs.Qlog.Stale;
      Obs.Qlog.note_hop "h" 1.0;
      Obs.Qlog.note_trace 7);
  check_int "attrs thunk never invoked" 0 !attr_evals;
  check_int "no span recorded" 0 (List.length (Obs.Span.finished ()));
  check_int "no span left open" 0 (List.length (Obs.Span.open_stack ()));
  check_int "no flight record written" 0 (List.length (Obs.Qlog.records ()))

(* --- flight-recorder filters and outcome ranking --- *)

let qlog_filters () =
  with_tracing (fun () ->
      Obs.Qlog.with_query ~name:"ctx-a!one" ~query_class:"x" (fun () ->
          Obs.Qlog.note_outcome Obs.Qlog.Stale;
          (* Only upgrades stick: Stale does not downgrade to Miss. *)
          Obs.Qlog.note_outcome Obs.Qlog.Miss);
      Obs.Qlog.with_query ~name:"ctx-b!two" ~query_class:"x" (fun () ->
          Obs.Qlog.note_outcome Obs.Qlog.Hit);
      let records = Obs.Qlog.records () in
      check_int "two records retired" 2 (List.length records);
      (match Obs.Qlog.by_outcome Obs.Qlog.Stale records with
      | [ r ] -> check_string "stale record found" "ctx-a!one" r.Obs.Qlog.name
      | rs -> Alcotest.failf "expected one stale record, got %d" (List.length rs));
      (match Obs.Qlog.by_context "ctx-b" records with
      | [ r ] -> check_string "context filter" "ctx-b!two" r.Obs.Qlog.name
      | rs -> Alcotest.failf "expected one ctx-b record, got %d" (List.length rs));
      check_int "slowest truncates" 1
        (List.length (Obs.Qlog.slowest 1 records)))

(* --- the metric-name lint --- *)

let metric_name_lint () =
  check_bool "every registered metric is layer.component.metric" true
    (Obs.Metrics.lint () = []);
  ignore (Obs.Metrics.counter "badly.named");
  let after = Obs.Metrics.lint () in
  check_int "the two-segment name is flagged" 1 (List.length after);
  check_bool "the complaint names the offender" true
    (contains (List.hd after) "badly.named")

let suite =
  [
    Alcotest.test_case "cold resolve: one tree across three processes" `Quick
      one_tree_across_three_processes;
    Alcotest.test_case "same seed, byte-identical span and qlog exports" `Quick
      exports_deterministic;
    Alcotest.test_case "stamped calls reach native servers" `Quick
      stamped_call_to_native_servers;
    Alcotest.test_case "conn-cache calls are counted and traced" `Quick
      conn_cache_call_is_traced;
    Alcotest.test_case "coalesced followers link the leader's trace" `Quick
      followers_link_leader_trace;
    Alcotest.test_case "SLO breach retains a resolvable exemplar" `Quick
      breach_retains_exemplar;
    Alcotest.test_case "time series prune on the virtual clock" `Quick
      timeseries_window;
    qtest timeseries_matches_model;
    Alcotest.test_case "SLO accounting: budget, burn rate, publish" `Quick
      slo_accounting;
    Alcotest.test_case "SLO observe on a full window allocates little" `Quick
      slo_observe_allocation;
    Alcotest.test_case "SLO window holds only the current simulation" `Quick
      slo_window_per_simulation;
    Alcotest.test_case "disabled tracing does no work" `Quick
      disabled_tracing_is_inert;
    Alcotest.test_case "flight-recorder filters" `Quick qlog_filters;
    Alcotest.test_case "metric names lint clean" `Quick metric_name_lint;
  ]
