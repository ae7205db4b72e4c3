(* Failure injection: packet loss, dead servers, and the error
   propagation paths through the whole stack. *)

open Helpers

(* --- broadcast location baseline --- *)

let sample_binding =
  Hrpc.Binding.make ~suite:Hrpc.Component.sunrpc_suite
    ~server:(Transport.Address.make 0x0A000042l 999) ~prog:7 ~vers:1

let broadcast_finds_owner () =
  let w = make_world ~hosts:4 () in
  let r =
    in_sim w (fun () ->
        let interpreters =
          Array.to_list w.stacks
          |> List.mapi (fun i stack ->
                 Baseline.Broadcast_locate.start_interpreter stack
                   (if i = 2 then [ ("printer", sample_binding) ] else []))
        in
        let r = Baseline.Broadcast_locate.locate w.stacks.(0) "printer" in
        List.iter Baseline.Broadcast_locate.stop_interpreter interpreters;
        r)
  in
  check_bool "found" true (r = Ok (Some sample_binding))

let broadcast_nobody_answers () =
  let w = make_world ~hosts:3 () in
  let r =
    in_sim w (fun () ->
        let interpreters =
          Array.to_list w.stacks
          |> List.map (fun stack -> Baseline.Broadcast_locate.start_interpreter stack [])
        in
        let r = Baseline.Broadcast_locate.locate w.stacks.(0) ~timeout:50.0 "ghost" in
        List.iter Baseline.Broadcast_locate.stop_interpreter interpreters;
        r)
  in
  check_bool "nobody" true (r = Ok None)

let broadcast_costs_every_host () =
  let w = make_world ~hosts:5 () in
  let heard =
    in_sim w (fun () ->
        let interpreters =
          Array.to_list w.stacks
          |> List.mapi (fun i stack ->
                 Baseline.Broadcast_locate.start_interpreter stack
                   (if i = 1 then [ ("svc", sample_binding) ] else []))
        in
        ignore (Baseline.Broadcast_locate.locate w.stacks.(0) "svc");
        Sim.Engine.sleep 100.0;
        let heard =
          List.fold_left
            (fun acc it ->
              acc
              + Obs.Metrics.read (Baseline.Broadcast_locate.metrics it)
                  "baseline.broadcast.queries_heard")
            0 interpreters
        in
        List.iter Baseline.Broadcast_locate.stop_interpreter interpreters;
        heard)
  in
  check_int "every interpreter paid" 5 heard

(* --- loss on the full HNS path --- *)

let import_survives_packet_loss () =
  (* 15% loss on every hop; retransmission carries lookups through. *)
  let w = make_world ~hosts:2 ~drop_probability:0.15 () in
  let ok =
    in_sim w (fun () ->
        let zone =
          Dns.Zone.simple ~origin:(Dns.Name.of_string "z")
            [ Dns.Rr.make (Dns.Name.of_string "h.z") (Dns.Rr.A 5l) ]
        in
        let server = Dns.Server.create w.stacks.(0) () in
        Dns.Server.add_zone server zone;
        Dns.Server.start server;
        let r =
          Dns.Resolver.create w.stacks.(1) ~servers:[ Dns.Server.addr server ]
            ~enable_cache:false ()
        in
        let ok = ref 0 in
        for _ = 1 to 30 do
          match Dns.Resolver.lookup_a r (Dns.Name.of_string "h.z") with
          | Ok 5l -> incr ok
          | _ -> ()
        done;
        !ok)
  in
  check_bool "most lookups survive 15% loss" true (ok >= 27)

(* --- dead meta server --- *)

let find_nsm_times_out_when_meta_dead () =
  let scn = Workload.Scenario.build () in
  let r =
    Workload.Scenario.in_sim scn (fun () ->
        Dns.Server.stop scn.meta_bind;
        let hns = Workload.Scenario.new_hns scn ~on:scn.client_stack in
        let r =
          Hns.Client.find_nsm hns ~context:scn.bind_context
            ~query_class:Hns.Query_class.hrpc_binding
        in
        (* restore for any later users of this scenario instance *)
        Dns.Server.start scn.meta_bind;
        r)
  in
  match r with
  | Error (Hns.Errors.Rpc_error (Rpc.Control.Timeout _)) -> ()
  | Ok _ -> Alcotest.fail "dead meta server cannot answer"
  | Error e -> Alcotest.failf "wrong error: %s" (Hns.Errors.to_string e)

let cached_client_survives_meta_outage () =
  (* "distributed and replicated for the usual reasons of performance,
     availability..." — even without a replica, a warm cache rides
     through a meta outage. *)
  let scn = Workload.Scenario.build () in
  let warm_result =
    Workload.Scenario.in_sim scn (fun () ->
        let hns = Workload.Scenario.new_hns scn ~on:scn.client_stack in
        (match
           Hns.Client.find_nsm hns ~context:scn.bind_context
             ~query_class:Hns.Query_class.hrpc_binding
         with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "warmup failed: %s" (Hns.Errors.to_string e));
        Dns.Server.stop scn.meta_bind;
        let r =
          Hns.Client.find_nsm hns ~context:scn.bind_context
            ~query_class:Hns.Query_class.hrpc_binding
        in
        Dns.Server.start scn.meta_bind;
        r)
  in
  match warm_result with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "cached FindNSM should survive: %s" (Hns.Errors.to_string e)

(* --- dead NSM --- *)

let import_times_out_when_nsm_dead () =
  let scn = Workload.Scenario.build () in
  let r =
    Workload.Scenario.in_sim scn (fun () ->
        let hns = Workload.Scenario.new_hns scn ~on:scn.client_stack in
        let resolved =
          get_ok ~msg:"find"
            (Hns.Client.find_nsm hns ~context:scn.bind_context
               ~query_class:Hns.Query_class.hrpc_binding)
        in
        (* Call a binding whose server is not there (port off by one). *)
        let dead =
          {
            resolved.Hns.Find_nsm.binding with
            Hrpc.Binding.server =
              {
                resolved.Hns.Find_nsm.binding.Hrpc.Binding.server with
                Transport.Address.port = 1;
              };
          }
        in
        Hns.Nsm_intf.call scn.client_stack (Hns.Nsm_intf.Remote dead)
          ~payload_ty:Hns.Nsm_intf.binding_payload_ty ~service:scn.service_name
          ~hns_name:(Hns.Hns_name.make ~context:scn.bind_context ~name:scn.service_host))
  in
  check_bool "timeout" true
    (match r with
    | Error (Hns.Errors.Rpc_error (Rpc.Control.Timeout _)) -> true
    | _ -> false)

(* --- dead backend name service --- *)

let nsm_reports_backend_outage () =
  let scn = Workload.Scenario.build () in
  let r =
    Workload.Scenario.in_sim scn (fun () ->
        Dns.Server.stop scn.public_bind;
        let nsm = Workload.Scenario.new_binding_nsm_bind scn ~on:scn.client_stack in
        let r =
          Hns.Nsm_intf.call_linked (Nsm.Binding_nsm_bind.impl nsm)
            ~service:scn.service_name
            ~hns_name:(Hns.Hns_name.make ~context:scn.bind_context ~name:scn.service_host)
        in
        Dns.Server.start scn.public_bind;
        r)
  in
  match r with
  | Error (Hns.Errors.Nsm_error m) ->
      check_bool "mentions the backend" true
        (String.length m > 0)
  | _ -> Alcotest.fail "backend outage must surface as an NSM error"

let suite =
  [
    Alcotest.test_case "broadcast finds owner" `Quick broadcast_finds_owner;
    Alcotest.test_case "broadcast nobody answers" `Quick broadcast_nobody_answers;
    Alcotest.test_case "broadcast costs every host" `Quick broadcast_costs_every_host;
    Alcotest.test_case "lookups survive loss" `Quick import_survives_packet_loss;
    Alcotest.test_case "dead meta server" `Quick find_nsm_times_out_when_meta_dead;
    Alcotest.test_case "cache survives meta outage" `Quick
      cached_client_survives_meta_outage;
    Alcotest.test_case "dead NSM" `Quick import_times_out_when_nsm_dead;
    Alcotest.test_case "dead backend" `Quick nsm_reports_backend_outage;
  ]

(* --- crashing procedures must not kill the simulation --- *)

let remote_nsm_backend_outage_is_survivable () =
  (* The REMOTE binding NSM's backend (public BIND) dies. Its lookup
     raises inside the NSM server process; the server must answer with
     a remote error, not crash the engine. *)
  let scn = Workload.Scenario.build () in
  let r =
    Workload.Scenario.in_sim scn (fun () ->
        let hns = Workload.Scenario.new_hns scn ~on:scn.client_stack in
        (* FindNSM first (it needs BIND for the host-address mapping),
           then kill the backend before calling the NSM. *)
        let resolved =
          get_ok ~msg:"find"
            (Hns.Client.find_nsm hns ~context:scn.bind_context
               ~query_class:Hns.Query_class.hrpc_binding)
        in
        Dns.Server.stop scn.public_bind;
        let r =
          Hns.Nsm_intf.call scn.client_stack
            (Hns.Nsm_intf.Remote resolved.Hns.Find_nsm.binding)
            ~payload_ty:Hns.Nsm_intf.binding_payload_ty ~service:scn.service_name
            ~hns_name:(Hns.Hns_name.make ~context:scn.bind_context ~name:scn.service_host)
        in
        Dns.Server.start scn.public_bind;
        r)
  in
  (* Either the NSM's SYSTEM_ERR-style crash report or a client-side
     timeout is acceptable; what matters is that the NSM server (and
     the simulation) survived. The in_sim wrapper would have raised
     Process_failure otherwise. *)
  match r with
  | Error (Hns.Errors.Rpc_error (Rpc.Control.Protocol_error _))
  | Error (Hns.Errors.Rpc_error (Rpc.Control.Timeout _)) ->
      ()
  | Ok _ -> Alcotest.fail "backend was down; the call cannot succeed"
  | Error e -> Alcotest.failf "unexpected error: %s" (Hns.Errors.to_string e)

let crashing_sunrpc_proc_returns_system_err () =
  let w = make_world () in
  let sign = Wire.Idl.signature ~arg:Wire.Idl.T_void ~res:Wire.Idl.T_void in
  let r =
    in_sim w (fun () ->
        let server = Rpc.Sunrpc.create w.stacks.(0) () in
        Rpc.Sunrpc.register server ~prog:44 ~vers:1 ~procnum:1 ~sign (fun _ ->
            failwith "deliberate crash");
        Rpc.Sunrpc.start server;
        let first =
          Rpc.Sunrpc.call w.stacks.(1) ~dst:(Rpc.Sunrpc.addr server) ~prog:44 ~vers:1
            ~procnum:1 ~sign Wire.Value.Void
        in
        (* the server is still alive for the next call *)
        let second =
          Rpc.Sunrpc.call w.stacks.(1) ~dst:(Rpc.Sunrpc.addr server) ~prog:44 ~vers:1
            ~procnum:0 ~sign Wire.Value.Void
        in
        (first, second))
  in
  (match fst r with
  | Error (Rpc.Control.Protocol_error _) -> ()
  | _ -> Alcotest.fail "crash should surface as a remote system error");
  check_bool "server survives" true (snd r = Ok Wire.Value.Void)

let crashing_raw_handler_stays_silent () =
  let w = make_world () in
  let r =
    in_sim w (fun () ->
        let _stop =
          Rpc.Rawrpc.serve_udp
            (Transport.Udp.bind w.stacks.(0) ~port:7070)
            ~name:"raw" ~service_overhead_ms:0.0 ~concurrent:false
            (fun ~src:_ payload ->
              if payload = "boom" then failwith "handler crash" else Some "ok")
        in
        let dst = Transport.Address.make (Transport.Netstack.ip w.stacks.(0)) 7070 in
        let crash = Rpc.Rawrpc.call w.stacks.(1) ~dst ~timeout:30.0 ~attempts:1 "boom" in
        let normal = Rpc.Rawrpc.call w.stacks.(1) ~dst "fine" in
        (crash, normal))
  in
  check_bool "crash times out" true
    (match fst r with Error (Rpc.Control.Timeout _) -> true | _ -> false);
  check_bool "server survives" true (snd r = Ok "ok")

let failure_extra =
  [
    Alcotest.test_case "remote NSM backend outage" `Quick
      remote_nsm_backend_outage_is_survivable;
    Alcotest.test_case "sunrpc crash -> SYSTEM_ERR" `Quick
      crashing_sunrpc_proc_returns_system_err;
    Alcotest.test_case "raw crash stays silent" `Quick crashing_raw_handler_stays_silent;
  ]

let suite = suite @ failure_extra
