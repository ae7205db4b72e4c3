(* Whole-system soak: a mixed workload over virtual time must succeed
   completely and — because the simulator is deterministic — reproduce
   itself exactly run for run. *)

open Helpers

(* One mixed-workload run; returns (ok, failures, events, end_time,
   bytes). *)
let run_soak () =
  let scn = Workload.Scenario.build () in
  let failures = ref 0 and ok = ref 0 in
  Workload.Scenario.in_sim scn (fun () ->
      let _installed = Services.Setup.install scn in
      let rng = Sim.Rng.create ~seed:0x50AEL in
      let zipf = Workload.Zipf.create ~n:8 ~s:1.0 in
      let hosts = Array.of_list (Workload.Namegen.hosts ~count:8 ~zone:scn.zone) in
      let hns = Workload.Scenario.new_hns scn ~on:scn.client_stack in
      let filing = Services.Filing.create hns in
      let mail = Services.Mail.create hns ~from:"soak@hcs" in
      for _ = 1 to 60 do
        Sim.Engine.sleep (Sim.Rng.float rng 10_000.0);
        let succeeded =
          match Sim.Rng.int rng 4 with
          | 0 ->
              let host = hosts.(Workload.Zipf.sample zipf rng) in
              (match
                 Hns.Client.resolve hns ~query_class:Hns.Query_class.host_address
                   ~payload_ty:Hns.Nsm_intf.host_address_payload_ty
                   (Hns.Hns_name.make ~context:scn.bind_context ~name:host)
               with
              | Ok (Some _) -> true
              | _ -> false)
          | 1 ->
              Result.is_ok
                (Services.Filing.fetch filing (Services.Setup.unix_file_name scn "todo"))
          | 2 ->
              Result.is_ok
                (Services.Mail.send mail
                   ~recipient:(Services.Setup.user_name scn "alice")
                   ~subject:"s" ~body:"b")
          | _ -> (
              match
                Hns.Client.resolve hns ~query_class:Hns.Query_class.hrpc_binding
                  ~payload_ty:Hns.Nsm_intf.binding_payload_ty ~service:scn.service_name
                  (Hns.Hns_name.make ~context:scn.bind_context ~name:scn.service_host)
              with
              | Ok (Some _) -> true
              | _ -> false)
        in
        if succeeded then incr ok else incr failures
      done);
  ( !ok,
    !failures,
    Sim.Engine.events_executed scn.engine,
    Sim.Engine.now scn.engine,
    net_count scn.net "transport.netstack.bytes_sent" )

let soak_no_failures () =
  let ok, failures, _, _, _ = run_soak () in
  check_int "all succeed" 60 ok;
  check_int "no failures" 0 failures

let soak_reproducible () =
  let _, _, e1, t1, b1 = run_soak () in
  let _, _, e2, t2, b2 = run_soak () in
  check_int "same event count" e1 e2;
  check_bool "same end time" true (t1 = t2);
  check_int "same bytes on the wire" b1 b2

(* --- chaos soak: resolutions under rolling partitions ------------- *)

(* 10k warm resolutions while the client is repeatedly partitioned
   from the designated NSM host. An alternate NSM rides on rarotonga,
   so every outage is survivable by failover; the run must stay above
   the success threshold, and the netstack's conservation invariant
   (sent = received + dropped) must hold with the oracle dropping
   packets mid-flight. *)
let chaos_soak () =
  let resolutions = 10_000 in
  let scn = Workload.Scenario.build () in
  let hns =
    Workload.Scenario.new_hns ~rpc_policy:Test_chaos.chaos_policy scn
      ~on:scn.client_stack
  in
  let ok = ref 0 and failures = ref 0 in
  let faults =
    Workload.Scenario.in_sim scn (fun () ->
        Test_chaos.register_alternate scn;
        (* One-second outages every four seconds, covering the whole
           run however far the slow (faulted) resolutions stretch it. *)
        let plan =
          List.init 400 (fun k ->
              Chaos.Plan.partition ~group_a:[ "tonga" ] ~group_b:[ "niue" ]
                ~at:(float_of_int k *. 4_000.0)
                ~heal_at:((float_of_int k *. 4_000.0) +. 1_000.0))
        in
        let inj = Chaos.Injector.install plan scn.net in
        for _ = 1 to resolutions do
          Sim.Engine.sleep 5.0;
          match
            Hns.Client.resolve hns ~query_class:Hns.Query_class.hrpc_binding
              ~payload_ty:Hns.Nsm_intf.binding_payload_ty
              ~service:scn.service_name
              (Hns.Hns_name.make ~context:scn.bind_context
                 ~name:scn.service_host)
          with
          | Ok (Some _) -> incr ok
          | _ -> incr failures
        done;
        Chaos.Injector.uninstall inj;
        Obs.Metrics.read (Chaos.Injector.metrics inj) "chaos.injector.faults_injected")
  in
  check_int "every resolution accounted for" resolutions (!ok + !failures);
  check_bool "the partitions actually bit" true (faults > 0);
  let success = float_of_int !ok /. float_of_int resolutions in
  if success < 0.95 then
    Alcotest.failf "success ratio %.4f below threshold (%d/%d ok)" success !ok
      resolutions;
  check_int "packet conservation: sent = received + dropped"
    (net_count scn.net "transport.netstack.packets_sent")
    (net_count scn.net "transport.netstack.packets_received"
    + net_count scn.net "transport.netstack.packets_dropped")

let suite =
  [
    Alcotest.test_case "soak: no failures" `Slow soak_no_failures;
    Alcotest.test_case "soak: reproducible" `Slow soak_reproducible;
    Alcotest.test_case "soak: chaos resolutions under rolling partitions" `Slow
      chaos_soak;
  ]
