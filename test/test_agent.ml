(* The shared host agent v2: one demarshalled cache and one
   singleflight table serving every client process on a host, plus the
   resolve-tail prefetch; graceful degradation when the agent crashes;
   NOTIFY subscriber liveness GC. *)

open Helpers
module S = Workload.Scenario

(* One testbed with the bundle answerer and resolve-tail prefetch, its
   public-BIND hot-name tracker warmed so the meta server has a
   ranking to piggyback. Server-side state the tests share is
   read-only after this. *)
let agent_scn =
  lazy
    (let scn = S.build ~bundle:true ~prefetch:true () in
     Experiments.warm_hot_tracker scn;
     scn)

(* The v2 agent's shared cache is demarshalled regardless of the
   scenario's (1987-measured) client mode. *)
let fresh_agent scn =
  let hns =
    S.new_hns ~cache_mode:Hns.Cache.Demarshalled scn ~on:scn.S.agent_stack
  in
  let agent = Hns.Agent.create hns () in
  Hns.Agent.start agent;
  agent

let upstream agent =
  meta_count (Hns.Client.meta (Hns.Agent.hns agent)) "hns.meta.remote_lookups"

let coalesced agent = Obs.Metrics.read (Hns.Agent.metrics agent) "hns.agent.coalesced"

(* --- cross-process coalescing --- *)

(* [k] client processes present the same cold FindNSM to one agent
   concurrently; the agent's own singleflight must collapse them into
   a single upstream meta query, every follower receiving the
   leader's answer. *)
let burst_find_nsm scn ~waiters =
  S.in_sim scn (fun () ->
      let agent = fresh_agent scn in
      let mb = Sim.Engine.Mailbox.create () in
      for i = 1 to waiters do
        Sim.Engine.spawn_child ~name:(Printf.sprintf "proc%d" i) (fun () ->
            Sim.Engine.Mailbox.send mb
              (Hns.Agent.remote_find_nsm scn.S.client_stack
                 ~agent:(Hns.Agent.binding agent) ~context:scn.S.bind_context
                 ~query_class:Hns.Query_class.hrpc_binding))
      done;
      let results = List.init waiters (fun _ -> Sim.Engine.Mailbox.recv mb) in
      let stats = (upstream agent, coalesced agent) in
      Hns.Agent.stop agent;
      (results, stats))

let burst_single_upstream () =
  let scn = Lazy.force agent_scn in
  let coalesced0 = global_count "hns.agent.coalesced" in
  let results, (lookups, coalesced) = burst_find_nsm scn ~waiters:6 in
  check_int "the agent's count is the registry delta" coalesced
    (global_count "hns.agent.coalesced" - coalesced0);
  let answers = List.map (get_ok ~msg:"burst find_nsm") results in
  check_int "one upstream meta query for six processes" 1 lookups;
  check_int "five rode the leader" 5 coalesced;
  match answers with
  | [] -> Alcotest.fail "no answers"
  | (nsm0, b0) :: rest ->
      List.iter
        (fun (nsm, b) ->
          check_string "same designated NSM for every process" nsm0 nsm;
          check_bool "same binding for every process" true
            (Hrpc.Binding.equal b0 b))
        rest

let coalescing_property =
  QCheck.Test.make
    ~name:"N cold client processes -> one upstream query via the agent"
    ~count:6
    QCheck.(int_range 2 8)
    (fun waiters ->
      let scn = Lazy.force agent_scn in
      let results, (lookups, coalesced) = burst_find_nsm scn ~waiters in
      List.iter (fun r -> ignore (get_ok ~msg:"find_nsm" r)) results;
      lookups = 1 && coalesced = waiters - 1)

let import_coalesces () =
  let scn = Lazy.force agent_scn in
  let k = 4 in
  let results, coalesced =
    S.in_sim scn (fun () ->
        let agent = fresh_agent scn in
        let name =
          Hns.Hns_name.make ~context:scn.S.bind_context ~name:scn.S.service_host
        in
        let mb = Sim.Engine.Mailbox.create () in
        for i = 1 to k do
          Sim.Engine.spawn_child ~name:(Printf.sprintf "imp%d" i) (fun () ->
              Sim.Engine.Mailbox.send mb
                (Hns.Agent.remote_import scn.S.client_stack
                   ~agent:(Hns.Agent.binding agent) ~service:scn.S.service_name
                   name))
        done;
        let results = List.init k (fun _ -> Sim.Engine.Mailbox.recv mb) in
        let coalesced = coalesced agent in
        Hns.Agent.stop agent;
        (results, coalesced))
  in
  check_int "followers coalesced on the whole import" (k - 1) coalesced;
  List.iter
    (fun r ->
      check_bool "every process got the service binding" true
        (Hrpc.Binding.equal (get_ok ~msg:"import" r) scn.S.expected_sun_binding))
    results

(* --- the shared cache across processes --- *)

let shared_cache_across_processes () =
  let scn = Lazy.force agent_scn in
  S.in_sim scn (fun () ->
      let agent = fresh_agent scn in
      let resolve () =
        get_ok ~msg:"resolve via agent"
          (Hns.Agent.remote_resolve_addr scn.S.client_stack
             ~agent:(Hns.Agent.binding agent)
             (Hns.Hns_name.make ~context:scn.S.bind_context
                ~name:
                  (Printf.sprintf "tonga.%s" scn.S.zone)))
      in
      let a = resolve () in
      let after_first = upstream agent in
      check_int "the cold resolve paid one bundle query" 1 after_first;
      (* A second client process asking later: served wholly from the
         shared cache, no new upstream traffic. *)
      let b = resolve () in
      check_int "no upstream traffic for the second process" after_first
        (upstream agent);
      check_bool "warm answer identical" true (a = b);
      check_bool "counted as an agent cache hit" true
        (Obs.Metrics.read (Hns.Agent.metrics agent) "hns.agent.cache_hits" >= 1);
      check_bool "hit ratio visible" true (Hns.Agent.cache_hit_ratio agent > 0.0);
      Hns.Agent.stop agent)

(* --- resolve-tail prefetch --- *)

let prefetch_skips_resolve_tail () =
  let scn = Lazy.force agent_scn in
  S.in_sim scn (fun () ->
      let agent = fresh_agent scn in
      let meta = Hns.Client.meta (Hns.Agent.hns agent) in
      let resolve host_stack =
        get_ok ~msg:"resolve"
          (Hns.Agent.remote_resolve_addr scn.S.client_stack
             ~agent:(Hns.Agent.binding agent)
             (Hns.Hns_name.make ~context:scn.S.bind_context
                ~name:
                  (Printf.sprintf "%s.%s"
                     (Transport.Netstack.host host_stack).Sim.Topology.hostname
                     scn.S.zone)))
      in
      (* The cold resolve's bundle reply carries the hot addresses. *)
      let ip = resolve scn.S.client_stack in
      check_bool "resolved to tonga's address" true
        (ip = Transport.Netstack.ip scn.S.client_stack);
      check_int "exactly one upstream query" 1 (upstream agent);
      check_bool "prefetch rows admitted to the shared cache" true
        (meta_count meta "hns.meta.bundle_prefetched" >= 3);
      check_bool "the cold resolve's own tail was prefetched" true
        (meta_count meta "hns.meta.prefetch_hits" >= 1);
      (* Other hot hosts: their whole resolution — FindNSM and the
         data step — is already in the shared cache, so no packet
         leaves for the meta server or any NSM. *)
      let ip_agent = resolve scn.S.agent_stack in
      let ip_nsm = resolve scn.S.nsm_stack in
      check_bool "rarotonga correct" true
        (ip_agent = Transport.Netstack.ip scn.S.agent_stack);
      check_bool "niue correct" true
        (ip_nsm = Transport.Netstack.ip scn.S.nsm_stack);
      check_int "still one upstream query after three resolutions" 1
        (upstream agent);
      check_bool "tail round trips skipped" true
        (meta_count meta "hns.meta.prefetch_hits" >= 3);
      Hns.Agent.stop agent)

(* --- graceful degradation: the agent crashes mid-flight --- *)

let m_failovers = Obs.Metrics.counter "hns.import.agent_failovers"

let agent_crash_failover () =
  let scn = S.build () in
  S.in_sim scn (fun () ->
      let agent = fresh_agent scn in
      let local = S.new_hns scn ~on:scn.S.client_stack in
      let env =
        Hns.Import.env ~stack:scn.S.client_stack ~local_hns:local
          ~agent:(Hns.Agent.binding agent) ()
      in
      let name =
        Hns.Hns_name.make ~context:scn.S.bind_context ~name:scn.S.service_host
      in
      (* Sanity: through the live agent first. *)
      let b =
        get_ok ~msg:"import via live agent"
          (Hns.Import.import env Hns.Import.Combined_agent
             ~service:scn.S.service_name name)
      in
      check_bool "live agent returns the binding" true
        (Hrpc.Binding.equal b scn.S.expected_sun_binding);
      check_int "no failover while the agent is up" 0
        (Obs.Metrics.value m_failovers);
      (* Crash the agent's host and import again: the client must fall
         over to direct resolution (local FindNSM, remote NSM call)
         and still produce the same binding. *)
      let before = Obs.Metrics.value m_failovers in
      let inj =
        Chaos.Injector.install
          [ Chaos.Plan.crash ~host:"rarotonga" ~at:(Sim.Engine.time ()) () ]
          scn.S.net
      in
      Sim.Engine.sleep 50.0;
      let b2 =
        get_ok ~msg:"import despite the crashed agent"
          (Hns.Import.import env Hns.Import.Combined_agent
             ~service:scn.S.service_name name)
      in
      Chaos.Injector.uninstall inj;
      check_bool "failover produced the same binding" true
        (Hrpc.Binding.equal b2 scn.S.expected_sun_binding);
      check_int "failover counted" (before + 1) (Obs.Metrics.value m_failovers);
      Hns.Agent.stop agent)

(* --- NOTIFY subscriber liveness GC --- *)

let m_deregistered = Obs.Metrics.counter "dns.notify.deregistered"

let notify_gc_deregisters_dead_subscriber () =
  let scn = S.build () in
  S.in_sim scn (fun () ->
      (* One live subscriber and one address nobody listens on. *)
      let client = S.new_hns scn ~on:scn.S.client_stack in
      let live, stop_listener =
        Hns.Meta_client.start_notify_listener (Hns.Client.meta client)
      in
      let dead =
        Transport.Address.make (Transport.Netstack.ip scn.S.nsm_stack) 59_999
      in
      Dns.Server.register_notify scn.S.meta_bind live;
      Dns.Server.register_notify scn.S.meta_bind dead;
      let before = Obs.Metrics.value m_deregistered in
      let admin = S.new_hns scn ~on:scn.S.meta_stack in
      let meta = Hns.Client.meta admin in
      (* Three zone updates: three pushes the dead target never acks —
         the strike limit — while the live listener acks each one. *)
      for i = 1 to 3 do
        let context = Printf.sprintf "agent-gc-%d" i in
        ignore
          (get_ok ~msg:"register"
             (Hns.Admin.register_context meta ~context ~ns:"UW-BIND"));
        Sim.Engine.sleep 2_500.0
      done;
      check_bool "dead subscriber deregistered" true
        (not (List.mem dead (Dns.Server.notify_targets scn.S.meta_bind)));
      check_bool "live subscriber survives" true
        (List.mem live (Dns.Server.notify_targets scn.S.meta_bind));
      check_int "GC counted once" (before + 1)
        (Obs.Metrics.value m_deregistered);
      for i = 1 to 3 do
        ignore
          (Hns.Admin.remove_context meta
             ~context:(Printf.sprintf "agent-gc-%d" i))
      done;
      stop_listener ())

let suite =
  [
    Alcotest.test_case "six processes, one upstream query" `Quick
      burst_single_upstream;
    qtest coalescing_property;
    Alcotest.test_case "whole imports coalesce" `Quick import_coalesces;
    Alcotest.test_case "shared cache serves later processes" `Quick
      shared_cache_across_processes;
    Alcotest.test_case "prefetch skips the resolve tail" `Quick
      prefetch_skips_resolve_tail;
    Alcotest.test_case "crashed agent fails over to direct resolution" `Quick
      agent_crash_failover;
    Alcotest.test_case "NOTIFY GC deregisters dead subscribers" `Quick
      notify_gc_deregisters_dead_subscriber;
  ]
