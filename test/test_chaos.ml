(* The chaos layer: timed fault plans, the injector's per-packet
   oracle, and the degradation paths they exercise — failover across
   alternate NSMs and serve-stale answers from the cache.

   The heart of the suite is a fault matrix: each fault kind (crash,
   partition, latency, corruption) against each resolution path (cold
   FindNSM walk, warm cache, failover to an alternate NSM), with the
   expected outcome asserted per cell and a hard bound on virtual time
   so no cell can hang silently. A determinism regression then pins
   the whole layer: the same plan and seed must reproduce the fault
   trace and the metrics render byte for byte. *)

open Helpers
module S = Workload.Scenario

(* Fast-failing retry policy so faulted cells conclude quickly; its
   worst case (two attempts, 300/600 ms, one capped pause) is about a
   second of virtual time. *)
let chaos_policy =
  {
    Rpc.Control.default_policy with
    Rpc.Control.attempts = 2;
    attempt_timeout_ms = 300.0;
    backoff_base_ms = 50.0;
    backoff_cap_ms = 400.0;
  }

(* --- plan construction --- *)

let plan_validation () =
  let rejected f = match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check_bool "crash heals before it starts" true
    (rejected (fun () -> Chaos.Plan.crash ~host:"h" ~at:5.0 ~heal_at:5.0 ()));
  check_bool "partition with empty group" true
    (rejected (fun () ->
         Chaos.Plan.partition ~group_a:[] ~group_b:[ "h" ] ~at:0.0 ~heal_at:1.0));
  check_bool "negative latency surcharge" true
    (rejected (fun () ->
         Chaos.Plan.latency_spike ~at:0.0 ~heal_at:1.0 ~add_ms:(-1.0) ()));
  check_bool "corruption probability above 1" true
    (rejected (fun () ->
         Chaos.Plan.corrupt ~at:0.0 ~heal_at:1.0 ~probability:1.5 ()));
  check_bool "fault start before t=0" true
    (rejected (fun () ->
         Chaos.Plan.partition ~group_a:[ "a" ] ~group_b:[ "b" ] ~at:(-1.0)
           ~heal_at:1.0))

(* [contains s sub] — naive substring search; the test strings are tiny. *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let plan_render () =
  let plan =
    [
      Chaos.Plan.crash ~host:"niue" ~at:2000.0 ~heal_at:6000.0 ();
      Chaos.Plan.crash ~host:"fiji" ~at:100.0 ();
      Chaos.Plan.latency_spike ~hosts:[ "samoa" ] ~at:0.0 ~heal_at:500.0
        ~add_ms:40.0 ~ramp:true ();
    ]
  in
  let s = Chaos.Plan.to_string plan in
  check_bool "crash window rendered" true
    (contains s "crash niue [2000,6000)");
  check_bool "unhealed crash renders inf" true
    (contains s "crash fiji [100,inf)");
  check_bool "ramp rendered" true (contains s "ramp")

(* --- the fault matrix --- *)

let resolve_service hns scn =
  Hns.Client.resolve hns ~query_class:Hns.Query_class.hrpc_binding
    ~payload_ty:Hns.Nsm_intf.binding_payload_ty ~service:scn.S.service_name
    (Hns.Hns_name.make ~context:scn.S.bind_context ~name:scn.S.service_host)

(* A second binding NSM for UW-BIND, on rarotonga, registered in the
   failover set so crashing the designated NSM host (niue) leaves a
   live alternate. *)
let register_alternate scn =
  let admin =
    Hns.Meta_client.create scn.S.meta_stack
      ~meta_server:(Dns.Server.addr scn.S.meta_bind)
      ~cache:(Hns.Cache.create ~mode:Hns.Cache.Demarshalled ())
      ()
  in
  let alt =
    Nsm.Binding_nsm_bind.create scn.S.agent_stack
      ~bind_server:(Dns.Server.addr scn.S.public_bind)
      ~services:[ (scn.S.service_name, (scn.S.target_prog, scn.S.target_vers)) ]
      ()
  in
  let srv =
    Nsm.Binding_nsm_bind.serve alt ~prog:(Hns.Nsm_intf.nsm_prog_base + 6) ()
  in
  Hrpc.Server.start srv;
  match
    Hns.Admin.register_alternate_nsm_server admin ~name:"b-bind-alt"
      ~ns:"UW-BIND" ~query_class:Hns.Query_class.hrpc_binding
      ~host:("rarotonga." ^ scn.S.zone) ~host_context:scn.S.bind_context
      (Hrpc.Server.binding srv)
  with
  | Ok () -> ()
  | Error e ->
      Alcotest.failf "alternate NSM registration failed: %s"
        (Hns.Errors.to_string e)

(* The three resolution paths a fault can land on. *)
type path =
  | Cold (* full FindNSM walk: meta lookups, then the NSM call *)
  | Warm (* FindNSM served from cache; only the NSM call leaves *)
  | Failover (* designated NSM faulted, alternate registered *)

type expect =
  | Expect_ok (* resolution must succeed with the right binding *)
  | Expect_error (* resolution must surface an error *)
  | Expect_completes (* either way, but it must terminate *)

(* Whether the faulted resolve's packets are expected to cross the
   fault: [Untouched] locks in the claim that the path does not emit
   the faulted traffic at all (e.g. a warm resolve never talks to the
   meta host), [Faulted] that the plan really engaged. *)
type traffic = Faulted | Untouched

let m_failovers = Obs.Metrics.counter "hns.find_nsm.failovers"

(* Run one cell: build the world, arrange the path, install the plan,
   resolve once mid-fault, and check the outcome. Every cell asserts
   termination within a budget: a silent hang would either trip the
   elapsed bound or deadlock the sim (which [in_sim] reports). *)
let run_cell ~path ~plan_of_t0 ~expect ~traffic ~expect_failover () =
  let scn = S.build () in
  let hns = S.new_hns ~rpc_policy:chaos_policy scn ~on:scn.S.client_stack in
  let result, elapsed, faults, failovers =
    S.in_sim scn (fun () ->
        if path = Failover then register_alternate scn;
        (match resolve_service hns scn with
        | Ok (Some _) -> ()
        | _ -> Alcotest.fail "warmup resolve failed");
        if path = Cold then Hns.Client.flush_cache hns;
        let failovers_before = Obs.Metrics.value m_failovers in
        let t0 = Sim.Engine.time () in
        let inj = Chaos.Injector.install (plan_of_t0 t0) scn.S.net in
        Sim.Engine.sleep 100.0;
        let result, elapsed = S.timed (fun () -> resolve_service hns scn) in
        Chaos.Injector.uninstall inj;
        ( result,
          elapsed,
          Obs.Metrics.read (Chaos.Injector.metrics inj) "chaos.injector.faults_injected",
          Obs.Metrics.value m_failovers - failovers_before ))
  in
  (* No silent hangs: even the worst cell (primary timeout + one
     alternate, each with meta walks) stays inside four retry
     budgets. *)
  let budget = 4.0 *. Rpc.Control.retry_budget_ms chaos_policy in
  if elapsed > budget then
    Alcotest.failf "cell took %.0f ms of virtual time (budget %.0f)" elapsed
      budget;
  (match expect with
  | Expect_ok -> (
      match result with
      | Ok (Some payload) ->
          check_bool "resolved to the expected binding" true
            (Hrpc.Binding.equal
               (Hrpc.Binding.of_value payload)
               scn.S.expected_sun_binding)
      | Ok None -> Alcotest.fail "expected a binding, got not-found"
      | Error e -> Alcotest.failf "expected Ok, got %s" (Hns.Errors.to_string e))
  | Expect_error -> (
      match result with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "expected the fault to surface an error")
  | Expect_completes -> ());
  (match traffic with
  | Faulted -> check_bool "fault engaged some packet" true (faults > 0)
  | Untouched -> check_int "path stayed clear of the fault" 0 faults);
  if expect_failover then
    check_bool "failover counted" true (failovers > 0)

(* The full matrix: every fault kind against every resolution path.

   Cold and warm cells fault the meta host (fiji): the cold walk needs
   it and must error when it is cut off, while the warm path holds the
   six mappings in cache and must not even send it a packet. Failover
   cells fault the designated NSM host (niue) with an alternate
   registered, so severing faults must fail over and succeed.
   Latency delays but never severs, so every path still succeeds;
   corruption garbles replies to the client, which may or may not be
   survivable (a flipped pad byte is harmless), so those cells assert
   termination rather than a verdict. *)
let crash_plan target t0 = [ Chaos.Plan.crash ~host:target ~at:t0 () ]

let partition_plan target t0 =
  [
    Chaos.Plan.partition ~group_a:[ "tonga" ] ~group_b:[ target ] ~at:t0
      ~heal_at:(t0 +. 60_000.0);
  ]

let latency_plan target t0 =
  [
    Chaos.Plan.latency_spike ~hosts:[ target ] ~at:t0 ~heal_at:(t0 +. 60_000.0)
      ~add_ms:100.0 ();
  ]

let corrupt_plan _target t0 =
  [
    Chaos.Plan.corrupt ~dst_hosts:[ "tonga" ] ~at:t0 ~heal_at:(t0 +. 60_000.0)
      ~probability:1.0 ();
  ]

let matrix_cases =
  let cell (kind, plan_of) (path, path_name, target) expect traffic
      expect_failover =
    Alcotest.test_case
      (Printf.sprintf "matrix: %s x %s" kind path_name)
      `Slow
      (run_cell ~path ~plan_of_t0:(plan_of target) ~expect ~traffic
         ~expect_failover)
  in
  let crash = ("crash", crash_plan)
  and partition = ("partition", partition_plan)
  and latency = ("latency", latency_plan)
  and corrupt = ("corrupt", corrupt_plan) in
  let cold = (Cold, "cold", "fiji")
  and warm = (Warm, "warm", "fiji")
  and failover = (Failover, "failover", "niue") in
  [
    cell crash cold Expect_error Faulted false;
    cell partition cold Expect_error Faulted false;
    cell latency cold Expect_ok Faulted false;
    cell corrupt cold Expect_completes Faulted false;
    cell crash warm Expect_ok Untouched false;
    cell partition warm Expect_ok Untouched false;
    cell latency warm Expect_ok Untouched false;
    cell corrupt warm Expect_completes Faulted false;
    cell crash failover Expect_ok Faulted true;
    cell partition failover Expect_ok Faulted true;
    cell latency failover Expect_ok Faulted false;
    cell corrupt failover Expect_completes Faulted false;
  ]

(* --- serve-stale degradation --- *)

(* A read of "k" whose backend fetch fails. *)
let failed_read c ~ty = Hns.Cache.through c ~key:"k" ~ty ~fetch:(fun () -> Error ())

let cache_serves_stale_within_budget () =
  let w = make_world ~hosts:1 () in
  in_sim w (fun () ->
      let c =
        Hns.Cache.create ~mode:Hns.Cache.Demarshalled
          ~staleness_budget_ms:5_000.0 ()
      in
      let ty = Wire.Idl.T_string in
      Hns.Cache.insert c ~key:"k" ~ty ~ttl_ms:1_000.0 (Wire.Value.Str "v");
      check_bool "fresh hit" true (Hns.Cache.find c ~key:"k" ~ty <> None);
      Sim.Engine.sleep 2_000.0;
      (* expired: find misses, a read whose fetch fails is answered stale *)
      check_bool "expired entry misses" true (Hns.Cache.find c ~key:"k" ~ty = None);
      check_bool "stale answer served" true
        (failed_read c ~ty = Hns.Cache.Stale_hit (Wire.Value.Str "v"));
      check_int "stale serves counted" 1 (cache_count c "hns.cache.stale_served");
      Sim.Engine.sleep 5_000.0;
      (* past the budget: the entry is gone for good *)
      check_bool "stale past budget refused" true (failed_read c ~ty = Hns.Cache.Failed ()));
  ()

let cache_no_budget_no_stale () =
  let w = make_world ~hosts:1 () in
  in_sim w (fun () ->
      let c = Hns.Cache.create ~mode:Hns.Cache.Demarshalled () in
      let ty = Wire.Idl.T_string in
      Hns.Cache.insert c ~key:"k" ~ty ~ttl_ms:1_000.0 (Wire.Value.Str "v");
      Sim.Engine.sleep 2_000.0;
      check_bool "zero budget serves nothing stale" true
        (failed_read c ~ty = Hns.Cache.Failed ());
      check_int "nothing counted" 0 (cache_count c "hns.cache.stale_served"))

(* End to end: with the meta server crashed and a short-TTL context
   mapping, a resolution inside the staleness budget still succeeds
   from the stale cache. *)
let resolve_serves_stale_under_meta_crash () =
  let scn = S.build () in
  let hns =
    S.new_hns ~staleness_budget_ms:60_000.0 ~rpc_policy:chaos_policy scn
      ~on:scn.S.client_stack
  in
  S.in_sim scn (fun () ->
      let admin =
        Hns.Meta_client.create scn.S.meta_stack
          ~meta_server:(Dns.Server.addr scn.S.meta_bind)
          ~cache:(Hns.Cache.create ~mode:Hns.Cache.Demarshalled ())
          ()
      in
      (* Re-register the context mapping with a 1 s TTL so it expires
         between the warmup and the faulted resolve. *)
      (match
         Hns.Meta_client.store admin
           ~key:(Hns.Meta_schema.context_key scn.S.bind_context)
           ~ty:Hns.Meta_schema.string_ty ~ttl_s:1l (Wire.Value.Str "UW-BIND")
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "store: %s" (Hns.Errors.to_string e));
      (match resolve_service hns scn with
      | Ok (Some _) -> ()
      | _ -> Alcotest.fail "warmup resolve failed");
      Sim.Engine.sleep 2_000.0;
      let stale_before = cache_count (Hns.Client.cache hns) "hns.cache.stale_served" in
      let t0 = Sim.Engine.time () in
      let inj =
        Chaos.Injector.install [ Chaos.Plan.crash ~host:"fiji" ~at:t0 () ] scn.S.net
      in
      (match resolve_service hns scn with
      | Ok (Some _) -> ()
      | Ok None -> Alcotest.fail "stale resolve returned not-found"
      | Error e ->
          Alcotest.failf "resolve under meta crash failed: %s"
            (Hns.Errors.to_string e));
      check_bool "stale answers served" true
        (cache_count (Hns.Client.cache hns) "hns.cache.stale_served" > stale_before);
      Chaos.Injector.uninstall inj)

(* --- determinism regression --- *)

(* The same plan, seed, and workload must reproduce the injector's
   fault trace and the exported metrics render byte for byte. *)
let chaos_run_for_determinism () =
  Obs.Metrics.reset ();
  let scn = S.build () in
  let hns = S.new_hns ~rpc_policy:chaos_policy scn ~on:scn.S.client_stack in
  let trace =
    S.in_sim scn (fun () ->
        ignore (resolve_service hns scn);
        let t0 = Sim.Engine.time () in
        let inj =
          Chaos.Injector.install ~seed:0xD373C7L
            [
              Chaos.Plan.crash ~host:"niue" ~at:(t0 +. 500.0)
                ~heal_at:(t0 +. 2_500.0) ();
              Chaos.Plan.corrupt ~dst_hosts:[ "tonga" ] ~at:(t0 +. 2_500.0)
                ~heal_at:(t0 +. 4_500.0) ~probability:0.5 ();
            ]
            scn.S.net
        in
        for i = 1 to 8 do
          Sim.Engine.sleep 500.0;
          ignore (resolve_service hns scn);
          ignore i
        done;
        Chaos.Injector.uninstall inj;
        Chaos.Injector.trace inj)
  in
  (trace, Obs.Export.metrics_json_lines ())

let chaos_deterministic () =
  let tr1, m1 = chaos_run_for_determinism () in
  let tr2, m2 = chaos_run_for_determinism () in
  check_int "same trace length" (List.length tr1) (List.length tr2);
  List.iteri
    (fun i (l1, l2) ->
      if l1 <> l2 then Alcotest.failf "trace line %d differs:\n%s\n%s" i l1 l2)
    (List.combine tr1 tr2);
  check_bool "trace is nonempty" true (tr1 <> []);
  check_string "metrics render identical" m1 m2

(* Different injector seeds must change corruption choices without
   breaking termination — the seed only feeds the random streams. *)
let injector_seed_isolated () =
  let run seed =
    let w = make_world ~hosts:2 () in
    in_sim w (fun () ->
        let inj =
          Chaos.Injector.install ~seed
            [
              Chaos.Plan.corrupt ~at:0.0 ~heal_at:1_000_000.0 ~probability:1.0 ();
            ]
            w.net
        in
        let server = Hrpc.Server.create w.stacks.(0)
            ~suite:Hrpc.Component.sunrpc_suite ~prog:900 ~vers:1 () in
        let sign = Wire.Idl.signature ~arg:Wire.Idl.T_string ~res:Wire.Idl.T_string in
        Hrpc.Server.register server ~procnum:1 ~sign (fun v -> v);
        Hrpc.Server.start server;
        let r =
          Hrpc.Client.call w.stacks.(1) (Hrpc.Server.binding server) ~procnum:1
            ~sign ~policy:chaos_policy (Wire.Value.Str "payload")
        in
        Chaos.Injector.uninstall inj;
        (r, Obs.Metrics.read (Chaos.Injector.metrics inj) "chaos.injector.faults_injected"))
  in
  let r1, f1 = run 1L in
  let r2, f2 = run 1L in
  check_bool "same seed, same outcome" true (r1 = r2 && f1 = f2);
  (* With probability 1.0 every datagram both ways to the server's
     host is a candidate; at least the request flow must be seen. *)
  check_bool "corruption engaged" true (f1 > 0)

(* The chaos experiment reads its counts as deltas over the run: a
   counter registered before it keeps its value, and a second run in
   the same process reports what the first did. *)
let chaos_run_reads_deltas () =
  let earlier = Obs.Metrics.counter "test.chaos.earlier" in
  Obs.Metrics.incr earlier;
  let held = Obs.Metrics.value earlier in
  List.iter
    (fun run ->
      let r = Experiments.chaos_run () in
      check_string run "faults injected: 15; failovers: 3; stale served: 4; client errors: 0"
        (Printf.sprintf "faults injected: %d; failovers: %d; stale served: %d; client errors: %d"
           r.Experiments.faults_injected r.failovers r.stale_served r.errors))
    [ "first run"; "second run" ];
  check_int "earlier counter kept" held (Obs.Metrics.value earlier)

let suite =
  [
    Alcotest.test_case "plan validation" `Quick plan_validation;
    Alcotest.test_case "plan rendering" `Quick plan_render;
    Alcotest.test_case "cache serves stale within budget" `Quick
      cache_serves_stale_within_budget;
    Alcotest.test_case "no budget, no stale answers" `Quick cache_no_budget_no_stale;
    Alcotest.test_case "resolve serves stale under meta crash" `Slow
      resolve_serves_stale_under_meta_crash;
    Alcotest.test_case "deterministic trace and metrics" `Slow chaos_deterministic;
    Alcotest.test_case "injector seed isolation" `Quick injector_seed_isolated;
    Alcotest.test_case "chaos run reads its counts as deltas" `Quick
      chaos_run_reads_deltas;
  ]
  @ matrix_cases
