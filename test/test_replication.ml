(* Tests for zone replication (BIND secondaries) and negative caching —
   the distribution/availability story of the meta-naming database. *)

open Helpers

let mk_a name ip = Dns.Rr.make (Dns.Name.of_string name) (Dns.Rr.A ip)

(* --- negative caching --- *)

let negative_cache_suppresses_requeries () =
  let w = make_world ~hosts:2 () in
  let served, neg_hits, second_err =
    in_sim w (fun () ->
        let zone = Dns.Zone.simple ~origin:(Dns.Name.of_string "z") [ mk_a "h.z" 1l ] in
        let server = Dns.Server.create w.stacks.(0) () in
        Dns.Server.add_zone server zone;
        Dns.Server.start server;
        let r =
          Dns.Resolver.create w.stacks.(1) ~servers:[ Dns.Server.addr server ]
            ~negative_ttl_ms:60_000.0 ()
        in
        let ghost = Dns.Name.of_string "ghost.z" in
        let _first = Dns.Resolver.query r ghost Dns.Rr.T_a in
        let second = Dns.Resolver.query r ghost Dns.Rr.T_a in
        ( Dns.Server.queries_served server,
          Obs.Metrics.read (Dns.Resolver.metrics r) "dns.resolver.negative_hits",
          second ))
  in
  check_int "one server query" 1 served;
  check_int "one negative hit" 1 neg_hits;
  check_bool "still NXDOMAIN" true (second_err = Error Dns.Resolver.Nxdomain)

let negative_cache_expires () =
  let w = make_world ~hosts:2 () in
  let served =
    in_sim w (fun () ->
        let zone = Dns.Zone.simple ~origin:(Dns.Name.of_string "z") [] in
        let server = Dns.Server.create w.stacks.(0) () in
        Dns.Server.add_zone server zone;
        Dns.Server.start server;
        let r =
          Dns.Resolver.create w.stacks.(1) ~servers:[ Dns.Server.addr server ]
            ~negative_ttl_ms:1_000.0 ()
        in
        let ghost = Dns.Name.of_string "ghost.z" in
        ignore (Dns.Resolver.query r ghost Dns.Rr.T_a);
        Sim.Engine.sleep 1_500.0;
        ignore (Dns.Resolver.query r ghost Dns.Rr.T_a);
        Dns.Server.queries_served server)
  in
  check_int "re-queried after negative TTL" 2 served

let negative_cache_off_by_default () =
  let w = make_world ~hosts:2 () in
  let served =
    in_sim w (fun () ->
        let zone = Dns.Zone.simple ~origin:(Dns.Name.of_string "z") [] in
        let server = Dns.Server.create w.stacks.(0) () in
        Dns.Server.add_zone server zone;
        Dns.Server.start server;
        let r = Dns.Resolver.create w.stacks.(1) ~servers:[ Dns.Server.addr server ] () in
        let ghost = Dns.Name.of_string "ghost.z" in
        ignore (Dns.Resolver.query r ghost Dns.Rr.T_a);
        ignore (Dns.Resolver.query r ghost Dns.Rr.T_a);
        Dns.Server.queries_served server)
  in
  check_int "1987 BIND requeries" 2 served

(* --- secondaries --- *)

let secondary_serves_replica () =
  let w = make_world ~hosts:3 () in
  let answer, transfers =
    in_sim w (fun () ->
        let zone =
          Dns.Zone.simple ~origin:(Dns.Name.of_string "z")
            [ mk_a "h.z" 7l; mk_a "k.z" 8l ]
        in
        let primary = Dns.Server.create w.stacks.(0) ~allow_update:true () in
        Dns.Server.add_zone primary zone;
        Dns.Server.start primary;
        let replica_server = Dns.Server.create w.stacks.(1) () in
        Dns.Server.start replica_server;
        let secondary =
          Dns.Secondary.attach replica_server ~primary:(Dns.Server.addr primary)
            ~zone:(Dns.Name.of_string "z") ~refresh_ms:5_000.0 ()
        in
        (* Client asks only the secondary. *)
        let r =
          Dns.Resolver.create w.stacks.(2)
            ~servers:[ Dns.Server.addr replica_server ] ()
        in
        let answer = Dns.Resolver.lookup_a r (Dns.Name.of_string "h.z") in
        Dns.Secondary.detach secondary;
        (answer, secondary_transfers secondary))
  in
  check_bool "replica answers" true (answer = Ok 7l);
  check_int "one initial transfer" 1 transfers

let secondary_picks_up_updates () =
  let w = make_world ~hosts:3 () in
  let before, after, transfers, fresh =
    in_sim w (fun () ->
        let zone = Dns.Zone.simple ~origin:(Dns.Name.of_string "z") [ mk_a "h.z" 7l ] in
        let primary = Dns.Server.create w.stacks.(0) ~allow_update:true () in
        Dns.Server.add_zone primary zone;
        Dns.Server.start primary;
        let replica_server = Dns.Server.create w.stacks.(1) () in
        Dns.Server.start replica_server;
        let secondary =
          Dns.Secondary.attach replica_server ~primary:(Dns.Server.addr primary)
            ~zone:(Dns.Name.of_string "z") ~refresh_ms:5_000.0 ()
        in
        let r =
          Dns.Resolver.create w.stacks.(2)
            ~servers:[ Dns.Server.addr replica_server ] ~enable_cache:false ()
        in
        let before = Dns.Resolver.lookup_a r (Dns.Name.of_string "new.z") in
        (* a native application updates the PRIMARY *)
        (match
           Dns.Update.add_rr (Rpc.Rawrpc.call w.stacks.(2) ~dst:(Dns.Server.addr primary))
             ~zone:(Dns.Name.of_string "z") (mk_a "new.z" 9l)
         with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "update failed: %a" Dns.Update.pp_error e);
        (* within the refresh window the replica is stale *)
        let still_stale = Dns.Resolver.lookup_a r (Dns.Name.of_string "new.z") in
        check_bool "stale inside refresh window" true (still_stale = before);
        (* after a refresh cycle it converges *)
        Sim.Engine.sleep 12_000.0;
        let after = Dns.Resolver.lookup_a r (Dns.Name.of_string "new.z") in
        Dns.Secondary.detach secondary;
        ( before,
          after,
          secondary_transfers secondary,
          secondary_count secondary "dns.secondary.fresh_checks" ))
  in
  check_bool "absent before" true (before = Error Dns.Resolver.Nxdomain);
  check_bool "present after refresh" true (after = Ok 9l);
  check_int "initial + one refresh transfer" 2 transfers;
  check_bool "serial probes that found it fresh" true (fresh >= 1)

let secondary_survives_primary_outage () =
  let w = make_world ~hosts:3 () in
  let answer =
    in_sim w (fun () ->
        let zone = Dns.Zone.simple ~origin:(Dns.Name.of_string "z") [ mk_a "h.z" 7l ] in
        let primary = Dns.Server.create w.stacks.(0) () in
        Dns.Server.add_zone primary zone;
        Dns.Server.start primary;
        let replica_server = Dns.Server.create w.stacks.(1) () in
        Dns.Server.start replica_server;
        let secondary =
          Dns.Secondary.attach replica_server ~primary:(Dns.Server.addr primary)
            ~zone:(Dns.Name.of_string "z") ~refresh_ms:4_000.0 ()
        in
        (* The primary dies; the replica keeps serving its last copy
           through several failed refresh probes. *)
        Dns.Server.stop primary;
        Sim.Engine.sleep 15_000.0;
        let r =
          Dns.Resolver.create w.stacks.(2)
            ~servers:[ Dns.Server.addr replica_server ] ()
        in
        let answer = Dns.Resolver.lookup_a r (Dns.Name.of_string "h.z") in
        Dns.Secondary.detach secondary;
        answer)
  in
  check_bool "availability through outage" true (answer = Ok 7l)

(* --- the meta-naming database, replicated --- *)

let hns_works_from_meta_replica () =
  let scn = Workload.Scenario.build () in
  let resolved_via_replica, sees_new_context =
    Workload.Scenario.in_sim scn (fun () ->
        (* Stand up a secondary of hns-meta. on the agent host. *)
        let replica_server = Dns.Server.create scn.agent_stack ~port:1054 () in
        Dns.Server.start replica_server;
        let secondary =
          Dns.Secondary.attach replica_server
            ~primary:(Dns.Server.addr scn.meta_bind)
            ~zone:Hns.Meta_schema.zone_origin ~refresh_ms:5_000.0 ()
        in
        (* An HNS client that only knows the replica. *)
        let cache = Workload.Scenario.new_cache scn () in
        let hns =
          Hns.Client.create scn.client_stack
            ~meta_server:(Dns.Server.addr replica_server) ~cache
            ~generated_cost:Workload.Calib.generated_cost ()
        in
        let ha =
          Nsm.Hostaddr_nsm_bind.create scn.client_stack
            ~bind_server:(Dns.Server.addr scn.public_bind) ()
        in
        Hns.Client.link_hostaddr_nsm hns ~name:scn.nsm_hostaddr_bind
          (Nsm.Hostaddr_nsm_bind.impl ha);
        let resolved =
          Hns.Client.find_nsm hns ~context:scn.bind_context
            ~query_class:Hns.Query_class.hrpc_binding
        in
        (* Register a new context at the PRIMARY; the replica-backed
           client converges after a refresh. *)
        let admin_cache = Hns.Cache.create ~mode:Hns.Cache.Demarshalled () in
        let admin =
          Hns.Meta_client.create scn.meta_stack
            ~meta_server:(Dns.Server.addr scn.meta_bind) ~cache:admin_cache ()
        in
        (match Hns.Admin.register_context admin ~context:"replica-ctx" ~ns:"UW-BIND" with
        | Ok () -> ()
        | Error e -> Alcotest.failf "register failed: %s" (Hns.Errors.to_string e));
        Sim.Engine.sleep 12_000.0;
        Hns.Client.flush_cache hns;
        let seen =
          Hns.Client.find_nsm hns ~context:"replica-ctx"
            ~query_class:Hns.Query_class.hrpc_binding
        in
        Dns.Secondary.detach secondary;
        (resolved, seen))
  in
  (match resolved_via_replica with
  | Ok r -> check_string "designates via replica" scn.nsm_binding_bind r.Hns.Find_nsm.nsm_name
  | Error e -> Alcotest.failf "replica-backed FindNSM failed: %s" (Hns.Errors.to_string e));
  match sees_new_context with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "new context not visible after refresh: %s" (Hns.Errors.to_string e)

let suite =
  [
    Alcotest.test_case "negative cache suppresses requeries" `Quick
      negative_cache_suppresses_requeries;
    Alcotest.test_case "negative cache expires" `Quick negative_cache_expires;
    Alcotest.test_case "negative cache off by default" `Quick
      negative_cache_off_by_default;
    Alcotest.test_case "secondary serves replica" `Quick secondary_serves_replica;
    Alcotest.test_case "secondary picks up updates" `Quick secondary_picks_up_updates;
    Alcotest.test_case "secondary survives outage" `Quick
      secondary_survives_primary_outage;
    Alcotest.test_case "HNS from a meta replica" `Quick hns_works_from_meta_replica;
  ]

(* --- Clearinghouse replication --- *)

let ch_cred =
  { Clearinghouse.Ch_proto.user = Clearinghouse.Ch_name.of_string "hcs:parc:xerox";
    password = "" }

let make_ch_pair w =
  let mk stack =
    let ch = Clearinghouse.Ch_server.create stack () in
    Clearinghouse.Ch_server.start ch;
    ch
  in
  let a = mk w.stacks.(0) and b = mk w.stacks.(1) in
  let repl = Clearinghouse.Ch_replication.connect ~propagation_ms:2_000.0 [ a; b ] in
  (a, b, repl)

let ch_write_propagates () =
  let w = make_world ~hosts:3 () in
  let before, after, shipped =
    in_sim w (fun () ->
        let a, b, repl = make_ch_pair w in
        let client =
          Clearinghouse.Ch_client.connect w.stacks.(2)
            ~server:(Clearinghouse.Ch_server.addr a) ~credentials:ch_cred
        in
        get_ok ~msg:"store"
          (Clearinghouse.Ch_client.store_item client
             (Clearinghouse.Ch_name.of_string "printer:parc:xerox")
             ~prop:4 "addr-bytes");
        Clearinghouse.Ch_client.close client;
        (* read the OTHER replica, before and after propagation *)
        let read () =
          let c =
            Clearinghouse.Ch_client.connect w.stacks.(2)
              ~server:(Clearinghouse.Ch_server.addr b) ~credentials:ch_cred
          in
          let r =
            Clearinghouse.Ch_client.retrieve_item c
              (Clearinghouse.Ch_name.of_string "printer:parc:xerox") ~prop:4
          in
          Clearinghouse.Ch_client.close c;
          r
        in
        let before = read () in
        Sim.Engine.sleep 3_000.0;
        let after = read () in
        Clearinghouse.Ch_replication.disconnect repl;
        (before, after, Clearinghouse.Ch_replication.propagated repl))
  in
  check_bool "stale before propagation" true (before = Error Clearinghouse.Ch_client.Not_found);
  check_bool "fresh after propagation" true (after = Ok "addr-bytes");
  check_int "one update shipped to one peer" 1 shipped

let ch_concurrent_writes_diverge () =
  (* The Grapevine anomaly, demonstrated: concurrent writes to two
     replicas swap past each other and the replicas stay divergent. *)
  let w = make_world ~hosts:3 () in
  let va, vb =
    in_sim w (fun () ->
        let a, b, repl = make_ch_pair w in
        let obj = Clearinghouse.Ch_name.of_string "clock:parc:xerox" in
        let write server v =
          let c =
            Clearinghouse.Ch_client.connect w.stacks.(2)
              ~server:(Clearinghouse.Ch_server.addr server) ~credentials:ch_cred
          in
          get_ok ~msg:"store" (Clearinghouse.Ch_client.store_item c obj ~prop:1 v);
          Clearinghouse.Ch_client.close c
        in
        (* two writers race to different replicas *)
        Sim.Engine.spawn_child (fun () -> write a "written-at-A");
        Sim.Engine.spawn_child (fun () -> write b "written-at-B");
        Sim.Engine.sleep 10_000.0;
        Clearinghouse.Ch_replication.disconnect repl;
        ( Clearinghouse.Ch_db.retrieve (Clearinghouse.Ch_server.db a) obj 1,
          Clearinghouse.Ch_db.retrieve (Clearinghouse.Ch_server.db b) obj 1 ))
  in
  (* each replica ends with the OTHER's write: divergence *)
  check_bool "replicas diverge (Grapevine anomaly)" true (va <> vb)

let ch_disconnect_stops_propagation () =
  let w = make_world ~hosts:3 () in
  let after =
    in_sim w (fun () ->
        let a, b, repl = make_ch_pair w in
        Clearinghouse.Ch_replication.disconnect repl;
        let c =
          Clearinghouse.Ch_client.connect w.stacks.(2)
            ~server:(Clearinghouse.Ch_server.addr a) ~credentials:ch_cred
        in
        get_ok ~msg:"store"
          (Clearinghouse.Ch_client.store_item c
             (Clearinghouse.Ch_name.of_string "x:parc:xerox") ~prop:1 "v");
        Clearinghouse.Ch_client.close c;
        Sim.Engine.sleep 5_000.0;
        Clearinghouse.Ch_db.retrieve (Clearinghouse.Ch_server.db b)
          (Clearinghouse.Ch_name.of_string "x:parc:xerox") 1)
  in
  check_bool "no propagation after disconnect" true (after = None)

let extra =
  [
    Alcotest.test_case "CH write propagates" `Quick ch_write_propagates;
    Alcotest.test_case "CH concurrent writes diverge" `Quick ch_concurrent_writes_diverge;
    Alcotest.test_case "CH disconnect" `Quick ch_disconnect_stops_propagation;
  ]

let suite = suite @ extra

let hns_fails_over_to_meta_replica () =
  (* An HNS client configured with the replica as fallback keeps
     resolving COLD through a primary outage. *)
  let scn = Workload.Scenario.build () in
  let r =
    Workload.Scenario.in_sim scn (fun () ->
        let replica_server = Dns.Server.create scn.agent_stack ~port:1055 () in
        Dns.Server.start replica_server;
        let secondary =
          Dns.Secondary.attach replica_server
            ~primary:(Dns.Server.addr scn.meta_bind)
            ~zone:Hns.Meta_schema.zone_origin ~refresh_ms:5_000.0 ()
        in
        let hns =
          Hns.Client.create scn.client_stack
            ~meta_server:(Dns.Server.addr scn.meta_bind)
            ~fallback_servers:[ Dns.Server.addr replica_server ]
            ~cache:(Workload.Scenario.new_cache scn ())
            ~generated_cost:Workload.Calib.generated_cost ()
        in
        let ha =
          Nsm.Hostaddr_nsm_bind.create scn.client_stack
            ~bind_server:(Dns.Server.addr scn.public_bind) ()
        in
        Hns.Client.link_hostaddr_nsm hns ~name:scn.nsm_hostaddr_bind
          (Nsm.Hostaddr_nsm_bind.impl ha);
        (* primary dies; nothing is cached yet *)
        Dns.Server.stop scn.meta_bind;
        let r =
          Hns.Client.find_nsm hns ~context:scn.bind_context
            ~query_class:Hns.Query_class.hrpc_binding
        in
        Dns.Server.start scn.meta_bind;
        Dns.Secondary.detach secondary;
        r)
  in
  match r with
  | Ok resolved ->
      check_string "designated via the replica" scn.nsm_binding_bind
        resolved.Hns.Find_nsm.nsm_name
  | Error e -> Alcotest.failf "failover FindNSM failed: %s" (Hns.Errors.to_string e)

let failover_suite =
  [ Alcotest.test_case "HNS fails over to replica" `Quick hns_fails_over_to_meta_replica ]

let suite = suite @ failover_suite
