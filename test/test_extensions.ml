(* Tests for the extension features: the collapsed-FindNSM ablation,
   NSM cache preloading, cross-representation mismatches, and assorted
   smaller behaviours. *)

open Helpers

let scn = lazy (Workload.Scenario.build ())

(* --- collapsed FindNSM (the rejected design) --- *)

let collapsed_register_and_find () =
  let s = Lazy.force scn in
  Workload.Scenario.in_sim s (fun () ->
      let hns = Workload.Scenario.new_hns s ~on:s.client_stack in
      let meta = Hns.Client.meta hns in
      let binding = s.expected_sun_binding in
      get_ok ~msg:"register"
        (Hns.Collapsed.register meta ~context:s.bind_context
           ~query_class:Hns.Query_class.hrpc_binding ~nsm_name:"b-bind" binding);
      match
        Hns.Collapsed.find meta ~context:s.bind_context
          ~query_class:Hns.Query_class.hrpc_binding
      with
      | Ok (nsm_name, b) ->
          check_string "nsm name" "b-bind" nsm_name;
          check_bool "binding" true (Hrpc.Binding.equal b binding)
      | Error e -> Alcotest.failf "collapsed find failed: %s" (Hns.Errors.to_string e))

let collapsed_missing_is_unknown_context () =
  let s = Lazy.force scn in
  let r =
    Workload.Scenario.in_sim s (fun () ->
        let hns = Workload.Scenario.new_hns s ~on:s.client_stack in
        Hns.Collapsed.find (Hns.Client.meta hns) ~context:"never-collapsed"
          ~query_class:Hns.Query_class.hrpc_binding)
  in
  check_bool "unknown" true (r = Error (Hns.Errors.Unknown_context "never-collapsed"))

let collapsed_materialize_agrees_with_separate () =
  let s = Lazy.force scn in
  Workload.Scenario.in_sim s (fun () ->
      let hns = Workload.Scenario.new_hns s ~on:s.client_stack in
      let n =
        get_ok ~msg:"materialize"
          (Hns.Collapsed.materialize (Hns.Client.finder hns)
             ~contexts:[ s.bind_context; s.ch_context; "no-such-ctx" ]
             ~query_classes:
               [ Hns.Query_class.hrpc_binding; Hns.Query_class.host_address ])
      in
      (* 2 contexts x 2 classes resolve; the bogus context is skipped *)
      check_int "written" 4 n;
      let separate =
        get_ok ~msg:"separate"
          (Hns.Client.find_nsm hns ~context:s.bind_context
             ~query_class:Hns.Query_class.hrpc_binding)
      in
      match
        Hns.Collapsed.find (Hns.Client.meta hns) ~context:s.bind_context
          ~query_class:Hns.Query_class.hrpc_binding
      with
      | Ok (nsm_name, binding) ->
          check_string "same designation" separate.Hns.Find_nsm.nsm_name nsm_name;
          check_bool "same binding" true
            (Hrpc.Binding.equal separate.Hns.Find_nsm.binding binding)
      | Error e -> Alcotest.failf "collapsed find failed: %s" (Hns.Errors.to_string e))

(* --- NSM cache preload --- *)

let nsm_preload_warms_cache () =
  let s = Lazy.force scn in
  let warmed, cold_after =
    Workload.Scenario.in_sim s (fun () ->
        let nsm = Workload.Scenario.new_binding_nsm_bind s ~on:s.client_stack in
        let warmed =
          Nsm.Binding_nsm_bind.preload nsm ~context:s.bind_context
            ~hosts:[ s.service_host ]
        in
        let (), d =
          Workload.Scenario.timed (fun () ->
              ignore
                (Hns.Nsm_intf.call_linked (Nsm.Binding_nsm_bind.impl nsm)
                   ~service:s.service_name
                   ~hns_name:
                     (Hns.Hns_name.make ~context:s.bind_context ~name:s.service_host)))
        in
        (warmed, d))
  in
  check_int "one entry warmed" 1 warmed;
  check_bool "subsequent query is a hit" true (cold_after < 30.0)

let nsm_preload_skips_unresolvable () =
  let s = Lazy.force scn in
  let warmed =
    Workload.Scenario.in_sim s (fun () ->
        let nsm = Workload.Scenario.new_binding_nsm_bind s ~on:s.client_stack in
        Nsm.Binding_nsm_bind.preload nsm ~context:s.bind_context
          ~hosts:[ "ghost." ^ s.zone ])
  in
  check_int "nothing warmed" 0 warmed

(* --- cross-representation mismatch --- *)

let hrpc_rep_mismatch_is_garbage () =
  (* A server exported with XDR called by a client that marshals the
     identical control protocol but the Courier representation: the
     server cannot decode the arguments. *)
  let w = make_world () in
  let echo_sign = Wire.Idl.signature ~arg:Wire.Idl.T_string ~res:Wire.Idl.T_string in
  let r =
    in_sim w (fun () ->
        let server =
          Hrpc.Server.create w.stacks.(0) ~suite:Hrpc.Component.sunrpc_suite ~prog:55
            ~vers:1 ()
        in
        Hrpc.Server.register server ~procnum:1 ~sign:echo_sign (fun v -> v);
        Hrpc.Server.start server;
        let confused =
          {
            (Hrpc.Server.binding server) with
            Hrpc.Binding.suite =
              { Hrpc.Component.sunrpc_suite with Hrpc.Component.data_rep = Wire.Data_rep.Courier };
          }
        in
        Hrpc.Client.call w.stacks.(1) confused ~procnum:1 ~sign:echo_sign
          (Wire.Value.Str "mismatched"))
  in
  check_bool "garbage args" true (r = Error Rpc.Control.Garbage_args)

(* --- assorted smaller behaviours --- *)

let errors_get_ok_raises () =
  match Hns.Errors.get_ok (Error (Hns.Errors.Unknown_context "x")) with
  | exception Hns.Errors.Hns_failure (Hns.Errors.Unknown_context "x") -> ()
  | exception _ -> Alcotest.fail "wrong exception"
  | _ -> Alcotest.fail "should raise"

let hns_name_ordering () =
  let a = Hns.Hns_name.make ~context:"a" ~name:"z" in
  let b = Hns.Hns_name.make ~context:"b" ~name:"a" in
  check_bool "context dominates" true (Hns.Hns_name.compare a b < 0);
  let a2 = Hns.Hns_name.make ~context:"a" ~name:"a" in
  check_bool "name breaks ties" true (Hns.Hns_name.compare a2 a < 0);
  check_int "equal" 0 (Hns.Hns_name.compare a a)

let secondary_refresh_override () =
  let w = make_world ~hosts:2 () in
  let transfers =
    in_sim w (fun () ->
        let zone =
          Dns.Zone.simple ~origin:(Dns.Name.of_string "z")
            [ Dns.Rr.make (Dns.Name.of_string "h.z") (Dns.Rr.A 1l) ]
        in
        let primary = Dns.Server.create w.stacks.(0) ~allow_update:true () in
        Dns.Server.add_zone primary zone;
        Dns.Server.start primary;
        let replica = Dns.Server.create w.stacks.(1) () in
        Dns.Server.start replica;
        let sec =
          Dns.Secondary.attach replica ~primary:(Dns.Server.addr primary)
            ~zone:(Dns.Name.of_string "z") ~refresh_ms:2_000.0 ()
        in
        check_bool "serial matches primary" true
          (Dns.Secondary.serial sec = Dns.Zone.serial zone);
        (* two updates, each picked up by a later cycle *)
        let upd name =
          match
            Dns.Update.add_rr (Rpc.Rawrpc.call w.stacks.(1) ~dst:(Dns.Server.addr primary))
              ~zone:(Dns.Name.of_string "z")
              (Dns.Rr.make (Dns.Name.of_string name) (Dns.Rr.A 9l))
          with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "update failed: %a" Dns.Update.pp_error e
        in
        upd "a.z";
        Sim.Engine.sleep 3_000.0;
        upd "b.z";
        Sim.Engine.sleep 3_000.0;
        let n = secondary_transfers sec in
        Dns.Secondary.detach sec;
        n)
  in
  check_int "initial + two refreshes" 3 transfers

let file_remove_via_filing () =
  let s = Lazy.force scn in
  Workload.Scenario.in_sim s (fun () ->
      let _inst = Services.Setup.install s in
      let hns = Workload.Scenario.new_hns s ~on:s.client_stack in
      let filing = Services.Filing.create hns in
      let name = Services.Setup.unix_file_name s "todo" in
      (match Services.Filing.remove filing name with
      | Ok true -> ()
      | Ok false -> Alcotest.fail "file existed"
      | Error e -> Alcotest.failf "remove failed: %a" Services.Access.pp_error e);
      match Services.Filing.fetch filing name with
      | Error (Services.Access.Name_error _) -> ()
      | _ -> Alcotest.fail "removed file must not fetch")

let suite =
  [
    Alcotest.test_case "collapsed register/find" `Quick collapsed_register_and_find;
    Alcotest.test_case "collapsed missing" `Quick collapsed_missing_is_unknown_context;
    Alcotest.test_case "collapsed materialize" `Quick
      collapsed_materialize_agrees_with_separate;
    Alcotest.test_case "NSM preload warms" `Quick nsm_preload_warms_cache;
    Alcotest.test_case "NSM preload skips" `Quick nsm_preload_skips_unresolvable;
    Alcotest.test_case "rep mismatch is garbage" `Quick hrpc_rep_mismatch_is_garbage;
    Alcotest.test_case "Errors.get_ok" `Quick errors_get_ok_raises;
    Alcotest.test_case "hns name ordering" `Quick hns_name_ordering;
    Alcotest.test_case "secondary refresh cycles" `Quick secondary_refresh_override;
    Alcotest.test_case "filing remove" `Quick file_remove_via_filing;
  ]

(* --- update ACL on the modified BIND --- *)

let update_acl_enforced () =
  let w = make_world ~hosts:3 () in
  in_sim w (fun () ->
      let zone = Dns.Zone.simple ~origin:(Dns.Name.of_string "z") [] in
      let server =
        Dns.Server.create w.stacks.(0) ~allow_update:true
          ~update_acl:[ Transport.Netstack.ip w.stacks.(1) ]
          ()
      in
      Dns.Server.add_zone server zone;
      Dns.Server.start server;
      let rr = Dns.Rr.make (Dns.Name.of_string "h.z") (Dns.Rr.A 1l) in
      (* the trusted admin host succeeds *)
      (match
         Dns.Update.add_rr (Rpc.Rawrpc.call w.stacks.(1) ~dst:(Dns.Server.addr server))
           ~zone:(Dns.Name.of_string "z") rr
       with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "trusted update failed: %a" Dns.Update.pp_error e);
      (* an untrusted host is refused *)
      match
        Dns.Update.add_rr (Rpc.Rawrpc.call w.stacks.(2) ~dst:(Dns.Server.addr server))
          ~zone:(Dns.Name.of_string "z")
          (Dns.Rr.make (Dns.Name.of_string "evil.z") (Dns.Rr.A 2l))
      with
      | Error Dns.Update.Refused -> ()
      | Ok _ -> Alcotest.fail "untrusted update must be refused"
      | Error e -> Alcotest.failf "wrong error: %a" Dns.Update.pp_error e)

(* --- TCP connection cache --- *)

let conn_cache_reuses_connections () =
  let w = make_world () in
  let echo_sign = Wire.Idl.signature ~arg:Wire.Idl.T_string ~res:Wire.Idl.T_string in
  in_sim w (fun () ->
      let server =
        Hrpc.Server.create w.stacks.(0) ~suite:Hrpc.Component.courier_suite ~prog:88
          ~vers:1 ()
      in
      Hrpc.Server.register server ~procnum:1 ~sign:echo_sign (fun v -> v);
      Hrpc.Server.start server;
      let cache = Hrpc.Conn_cache.create w.stacks.(1) in
      let binding = Hrpc.Server.binding server in
      let call s =
        match Hrpc.Conn_cache.call cache binding ~procnum:1 ~sign:echo_sign (Wire.Value.Str s) with
        | Ok (Wire.Value.Str r) -> r
        | _ -> Alcotest.fail "cached call failed"
      in
      let (), first = Workload.Scenario.timed (fun () -> ignore (call "a")) in
      let (), second = Workload.Scenario.timed (fun () -> ignore (call "b")) in
      check_int "one live connection" 1 (Hrpc.Conn_cache.live cache);
      check_int "one reuse" 1
        (Obs.Metrics.read (Hrpc.Conn_cache.metrics cache) "hrpc.conn_cache.reuses");
      check_bool "reuse skips the handshake" true (second < first);
      Hrpc.Conn_cache.clear cache;
      check_int "cleared" 0 (Hrpc.Conn_cache.live cache))

let conn_cache_reconnects_after_server_restart () =
  let w = make_world () in
  let echo_sign = Wire.Idl.signature ~arg:Wire.Idl.T_string ~res:Wire.Idl.T_string in
  in_sim w (fun () ->
      let mk () =
        let server =
          Hrpc.Server.create w.stacks.(0) ~suite:Hrpc.Component.courier_suite ~prog:89
            ~vers:1 ~port:4321 ()
        in
        Hrpc.Server.register server ~procnum:1 ~sign:echo_sign (fun v -> v);
        Hrpc.Server.start server;
        server
      in
      let server = mk () in
      let cache = Hrpc.Conn_cache.create w.stacks.(1) in
      let binding = Hrpc.Server.binding server in
      let call s =
        Hrpc.Conn_cache.call cache binding ~procnum:1 ~sign:echo_sign (Wire.Value.Str s)
      in
      check_bool "first ok" true (call "one" = Ok (Wire.Value.Str "one"));
      (* the server restarts: the cached connection is dead *)
      Hrpc.Server.stop server;
      let server2 = mk () in
      ignore server2;
      check_bool "transparent reconnect" true (call "two" = Ok (Wire.Value.Str "two")))

let udp_passthrough () =
  let w = make_world () in
  let echo_sign = Wire.Idl.signature ~arg:Wire.Idl.T_string ~res:Wire.Idl.T_string in
  in_sim w (fun () ->
      let server =
        Hrpc.Server.create w.stacks.(0) ~suite:Hrpc.Component.sunrpc_suite ~prog:90
          ~vers:1 ()
      in
      Hrpc.Server.register server ~procnum:1 ~sign:echo_sign (fun v -> v);
      Hrpc.Server.start server;
      let cache = Hrpc.Conn_cache.create w.stacks.(1) in
      check_bool "udp via cache works" true
        (Hrpc.Conn_cache.call cache (Hrpc.Server.binding server) ~procnum:1
           ~sign:echo_sign (Wire.Value.Str "dgram")
        = Ok (Wire.Value.Str "dgram"));
      check_int "no connections held for udp" 0 (Hrpc.Conn_cache.live cache))

let extension_extra =
  [
    Alcotest.test_case "update ACL" `Quick update_acl_enforced;
    Alcotest.test_case "conn cache reuse" `Quick conn_cache_reuses_connections;
    Alcotest.test_case "conn cache reconnect" `Quick
      conn_cache_reconnects_after_server_restart;
    Alcotest.test_case "conn cache udp passthrough" `Quick udp_passthrough;
  ]

let suite = suite @ extension_extra

(* --- final edge cases --- *)

let import_env_misconfiguration () =
  let s = Lazy.force scn in
  Workload.Scenario.in_sim s (fun () ->
      let name = Hns.Hns_name.make ~context:s.bind_context ~name:s.service_host in
      (* All_linked without a local HNS *)
      let env = Hns.Import.env ~stack:s.client_stack () in
      (match Hns.Import.import env Hns.Import.All_linked ~service:s.service_name name with
      | Error (Hns.Errors.Meta_error m) ->
          check_bool "mentions local HNS" true
            (String.length m > 0)
      | _ -> Alcotest.fail "missing local HNS must error");
      (* Combined_agent without an agent *)
      match Hns.Import.import env Hns.Import.Combined_agent ~service:s.service_name name with
      | Error (Hns.Errors.Meta_error _) -> ()
      | _ -> Alcotest.fail "missing agent must error")

let stub_decode_failure_is_protocol_error () =
  let w = make_world () in
  let bad_stub =
    Hrpc.Stub.proc ~procnum:1
      ~sign:(Wire.Idl.signature ~arg:Wire.Idl.T_void ~res:Wire.Idl.T_string)
      ~encode_arg:(fun () -> Wire.Value.Void)
      ~decode_res:(fun v -> Wire.Value.get_int v (* wrong accessor *))
  in
  let r =
    in_sim w (fun () ->
        let server =
          Hrpc.Server.create w.stacks.(0) ~suite:Hrpc.Component.sunrpc_suite ~prog:66
            ~vers:1 ()
        in
        Hrpc.Server.register server ~procnum:1
          ~sign:(Wire.Idl.signature ~arg:Wire.Idl.T_void ~res:Wire.Idl.T_string)
          (fun _ -> Wire.Value.Str "text");
        Hrpc.Server.start server;
        Hrpc.Stub.call w.stacks.(1) (Hrpc.Server.binding server) bad_stub ())
  in
  match r with
  | Error (Rpc.Control.Protocol_error _) -> ()
  | _ -> Alcotest.fail "stub decode failure should be a protocol error"

let topology_queries () =
  let topo = Sim.Topology.create () in
  let a = Sim.Topology.add_host topo "alpha" in
  let _b = Sim.Topology.add_host topo "beta" in
  check_int "two hosts" 2 (List.length (Sim.Topology.hosts topo));
  check_bool "find by name" true (Sim.Topology.find_host topo "alpha" = Some a);
  check_bool "missing host" true (Sim.Topology.find_host topo "gamma" = None)

let well_known_ports () =
  check_int "portmapper" 111 Transport.Address.Well_known.sunrpc_portmapper;
  check_int "dns" 53 Transport.Address.Well_known.dns;
  check_int "courier" 5 Transport.Address.Well_known.courier;
  check_int "clearinghouse" 20 Transport.Address.Well_known.clearinghouse

let cache_default_ttl_applies () =
  let w = make_world ~hosts:1 () in
  in_sim w (fun () ->
      let c = Hns.Cache.create ~mode:Hns.Cache.Demarshalled () in
      Hns.Cache.insert c ~key:"k" ~ty:Wire.Idl.T_int (Wire.Value.int 1);
      Sim.Engine.sleep 3_599_999.0;
      check_bool "fresh inside the hour" true
        (Hns.Cache.find c ~key:"k" ~ty:Wire.Idl.T_int <> None);
      Sim.Engine.sleep 2.0;
      check_bool "expired by default ttl" true
        (Hns.Cache.find c ~key:"k" ~ty:Wire.Idl.T_int = None))

let yp_client_all_empty_map () =
  let s = Lazy.force scn in
  Workload.Scenario.in_sim s (fun () ->
      let ypserv = Yp.Yp_server.create s.agent_stack ~port:835 ~domain:"d" () in
      Yp.Yp_server.start ypserv;
      let c = Yp.Yp_client.create s.client_stack ~server:(Yp.Yp_server.addr ypserv) ~domain:"d" in
      check_bool "empty map enumerates to []" true
        (Yp.Yp_client.all c ~map:"empty.map" = Ok []);
      Yp.Yp_server.stop ypserv)

let final_edge_cases =
  [
    Alcotest.test_case "import env misconfig" `Quick import_env_misconfiguration;
    Alcotest.test_case "stub decode failure" `Quick stub_decode_failure_is_protocol_error;
    Alcotest.test_case "topology queries" `Quick topology_queries;
    Alcotest.test_case "well-known ports" `Quick well_known_ports;
    Alcotest.test_case "cache default ttl" `Quick cache_default_ttl_applies;
    Alcotest.test_case "yp empty map" `Quick yp_client_all_empty_map;
  ]

let suite = suite @ final_edge_cases

(* --- one more test wave --- *)

let localfile_serialization_roundtrip =
  let gen =
    QCheck.Gen.(
      list_size (int_bound 8)
        (map2
           (fun i j ->
             ( Printf.sprintf "svc%d" (i mod 100),
               Printf.sprintf "host%d" (j mod 100),
               Hrpc.Binding.make ~suite:Hrpc.Component.sunrpc_suite
                 ~server:(Transport.Address.make (Int32.of_int i) (j land 0xFFFF))
                 ~prog:i ~vers:1 ))
           (int_bound 1_000_000) (int_bound 1_000_000)))
  in
  QCheck.Test.make ~name:"localfile file format roundtrip" ~count:100
    (QCheck.make gen)
    (fun entries ->
      (* dedup on (service, host): last writer wins in the file *)
      let dedup =
        List.fold_left
          (fun acc (s, h, b) ->
            (s, h, b) :: List.filter (fun (s', h', _) -> (s', h') <> (s, h)) acc)
          [] entries
      in
      let lf = Baseline.Localfile.create () in
      Baseline.Localfile.replace_all lf dedup;
      List.for_all
        (fun (s, h, b) ->
          match Baseline.Localfile.import lf ~service:s ~host:h with
          | Ok b' -> Hrpc.Binding.equal b b'
          | Error _ -> false)
        dedup)

let sendmail_tokenizer_property =
  QCheck.Test.make ~name:"sendmail routing is deterministic" ~count:100
    QCheck.(string_of_size (Gen.int_bound 30))
    (fun s ->
      let rules = Baseline.Sendmail_rules.classic () in
      Baseline.Sendmail_rules.route rules s = Baseline.Sendmail_rules.route rules s)

let courier_session_survives_abort () =
  let w = make_world () in
  let sign = Wire.Idl.signature ~arg:Wire.Idl.T_string ~res:Wire.Idl.T_string in
  in_sim w (fun () ->
      let server = Rpc.Courier_rpc.create w.stacks.(0) () in
      Rpc.Courier_rpc.register server ~prog:3 ~vers:1 ~procnum:1 ~sign (fun v ->
          match v with
          | Wire.Value.Str "die" -> failwith "abort"
          | v -> v);
      Rpc.Courier_rpc.start server;
      let session = Rpc.Courier_rpc.connect w.stacks.(1) (Rpc.Courier_rpc.addr server) in
      (match
         Rpc.Courier_rpc.call session ~prog:3 ~vers:1 ~procnum:1 ~sign
           (Wire.Value.Str "die")
       with
      | Error (Rpc.Control.Protocol_error _) -> ()
      | _ -> Alcotest.fail "expected abort");
      (* the session keeps working after the abort *)
      check_bool "post-abort call works" true
        (Rpc.Courier_rpc.call session ~prog:3 ~vers:1 ~procnum:1 ~sign
           (Wire.Value.Str "ok")
        = Ok (Wire.Value.Str "ok"));
      Rpc.Courier_rpc.close session)

let sunrpc_retransmit_duplicate_execution () =
  (* UDP retransmission can execute a non-idempotent procedure twice —
     classic at-least-once semantics, faithfully reproduced. *)
  let w = make_world ~drop_probability:0.45 () in
  let count = ref 0 in
  let sign = Wire.Idl.signature ~arg:Wire.Idl.T_void ~res:Wire.Idl.T_int in
  let executions =
    in_sim w (fun () ->
        let server = Rpc.Sunrpc.create w.stacks.(0) () in
        Rpc.Sunrpc.register server ~prog:5 ~vers:1 ~procnum:1 ~sign (fun _ ->
            incr count;
            Wire.Value.int !count);
        Rpc.Sunrpc.start server;
        for _ = 1 to 10 do
          ignore
            (Rpc.Sunrpc.call w.stacks.(1) ~dst:(Rpc.Sunrpc.addr server) ~prog:5
               ~vers:1 ~procnum:1 ~sign ~timeout:30.0 ~attempts:6 Wire.Value.Void)
        done;
        !count)
  in
  check_bool "at-least-once can over-execute" true (executions >= 10)

let scenario_demarshalled_mode_works () =
  let scn = Workload.Scenario.build ~cache_mode:Hns.Cache.Demarshalled () in
  let warm =
    Workload.Scenario.in_sim scn (fun () ->
        let hns = Workload.Scenario.new_hns scn ~on:scn.client_stack in
        let go () =
          ignore
            (get_ok ~msg:"find"
               (Hns.Client.find_nsm hns ~context:scn.bind_context
                  ~query_class:Hns.Query_class.hrpc_binding))
        in
        go ();
        let (), warm = Workload.Scenario.timed go in
        warm)
  in
  (* demarshalled warm FindNSM: six overheads + cheap hits, ~40ms *)
  check_bool "demarshalled warm walk under 50ms" true (warm < 50.0)

let final_wave =
  [
    qtest localfile_serialization_roundtrip;
    qtest sendmail_tokenizer_property;
    Alcotest.test_case "courier session after abort" `Quick courier_session_survives_abort;
    Alcotest.test_case "at-least-once duplication" `Quick
      sunrpc_retransmit_duplicate_execution;
    Alcotest.test_case "demarshalled scenario" `Quick scenario_demarshalled_mode_works;
  ]

let suite = suite @ final_wave
