(* Tests for the NSM implementations: identical interfaces over
   different name services, caching, and remote service. *)

open Helpers

let scn = lazy (Workload.Scenario.build ())

let call_linked impl ~service ~name ~context =
  Hns.Nsm_intf.call_linked impl ~service
    ~hns_name:(Hns.Hns_name.make ~context ~name)

let binding_nsm_bind_resolves () =
  let scn = Lazy.force scn in
  let r =
    Workload.Scenario.in_sim scn (fun () ->
        let nsm = Workload.Scenario.new_binding_nsm_bind scn ~on:scn.client_stack in
        call_linked (Nsm.Binding_nsm_bind.impl nsm) ~service:scn.service_name
          ~name:scn.service_host ~context:scn.bind_context)
  in
  match r with
  | Ok (Some payload) ->
      check_bool "binding payload" true
        (Hrpc.Binding.equal (Hrpc.Binding.of_value payload) scn.expected_sun_binding)
  | _ -> Alcotest.fail "binding NSM should find the service"

let binding_nsm_bind_prog_vers_literal () =
  (* ServiceNames of the form "prog:vers" bypass the directory. *)
  let scn = Lazy.force scn in
  let r =
    Workload.Scenario.in_sim scn (fun () ->
        let nsm = Workload.Scenario.new_binding_nsm_bind scn ~on:scn.client_stack in
        call_linked (Nsm.Binding_nsm_bind.impl nsm)
          ~service:(Printf.sprintf "%d:%d" scn.target_prog scn.target_vers)
          ~name:scn.service_host ~context:scn.bind_context)
  in
  match r with
  | Ok (Some _) -> ()
  | _ -> Alcotest.fail "prog:vers service name should resolve"

let binding_nsm_bind_unknown_host () =
  let scn = Lazy.force scn in
  let r =
    Workload.Scenario.in_sim scn (fun () ->
        let nsm = Workload.Scenario.new_binding_nsm_bind scn ~on:scn.client_stack in
        call_linked (Nsm.Binding_nsm_bind.impl nsm) ~service:scn.service_name
          ~name:("ghost." ^ scn.zone) ~context:scn.bind_context)
  in
  check_bool "not found" true (r = Ok None)

let binding_nsm_bind_unknown_service_errors () =
  let scn = Lazy.force scn in
  let r =
    Workload.Scenario.in_sim scn (fun () ->
        let nsm = Workload.Scenario.new_binding_nsm_bind scn ~on:scn.client_stack in
        call_linked (Nsm.Binding_nsm_bind.impl nsm) ~service:"NoSuchService"
          ~name:scn.service_host ~context:scn.bind_context)
  in
  match r with
  | Error (Hns.Errors.Nsm_error _) -> ()
  | _ -> Alcotest.fail "unknown ServiceName should be an NSM error"

let binding_nsm_caches () =
  let scn = Lazy.force scn in
  let cold, warm, backend =
    Workload.Scenario.in_sim scn (fun () ->
        let nsm = Workload.Scenario.new_binding_nsm_bind scn ~on:scn.client_stack in
        let go () =
          ignore
            (call_linked (Nsm.Binding_nsm_bind.impl nsm) ~service:scn.service_name
               ~name:scn.service_host ~context:scn.bind_context)
        in
        let (), cold = Workload.Scenario.timed go in
        let (), warm = Workload.Scenario.timed go in
        let misses =
          match scn.Workload.Scenario.cache_mode with
          | Hns.Cache.Marshalled -> "hns.cache.marshalled.misses"
          | Hns.Cache.Demarshalled -> "hns.cache.demarshalled.misses"
        in
        (cold, warm, cache_count (Nsm.Binding_nsm_bind.cache nsm) misses))
  in
  check_bool "cold does real work" true (cold > 50.0);
  check_bool "warm is a cache hit" true (warm < cold /. 3.0);
  check_int "single backend query" 1 backend

let binding_nsm_ch_same_interface () =
  let scn = Lazy.force scn in
  let r =
    Workload.Scenario.in_sim scn (fun () ->
        let nsm = Workload.Scenario.new_binding_nsm_ch scn ~on:scn.client_stack in
        call_linked (Nsm.Binding_nsm_ch.impl nsm) ~service:""
          ~name:scn.courier_service_name ~context:scn.ch_context)
  in
  match r with
  | Ok (Some payload) ->
      check_bool "courier binding via CH" true
        (Hrpc.Binding.equal (Hrpc.Binding.of_value payload) scn.expected_courier_binding)
  | _ -> Alcotest.fail "CH binding NSM should find the service"

let hostaddr_nsms_agree_with_sources () =
  let scn = Lazy.force scn in
  let bind_ip, ch_ip =
    Workload.Scenario.in_sim scn (fun () ->
        let ha_bind =
          Nsm.Hostaddr_nsm_bind.create scn.client_stack
            ~bind_server:(Dns.Server.addr scn.public_bind) ()
        in
        let ha_ch =
          Nsm.Hostaddr_nsm_ch.create scn.client_stack
            ~ch_server:(Clearinghouse.Ch_server.addr scn.ch)
            ~credentials:scn.credentials ~domain:scn.ch_domain ~org:scn.ch_org ()
        in
        let unpack = function
          | Ok (Some (Wire.Value.Uint ip)) -> ip
          | _ -> Alcotest.fail "expected an address"
        in
        ( unpack
            (call_linked (Nsm.Hostaddr_nsm_bind.impl ha_bind) ~service:""
               ~name:scn.service_host ~context:scn.bind_context),
          unpack
            (call_linked (Nsm.Hostaddr_nsm_ch.impl ha_ch) ~service:"" ~name:"dandelion"
               ~context:scn.ch_context) ))
  in
  check_bool "bind-backed address" true (bind_ip = Transport.Netstack.ip scn.service_stack);
  check_bool "ch-backed address" true (ch_ip = Transport.Netstack.ip scn.ch_stack)

(* Every NSM reads through its cache, so each serves stale within the
   cache's budget: a Clearinghouse host-address NSM answers the expired
   address while the Clearinghouse host is down. *)
let ch_nsm_serves_stale () =
  let scn = Workload.Scenario.build () in
  let cache = Hns.Cache.create ~mode:Hns.Cache.Demarshalled ~staleness_budget_ms:600_000.0 () in
  let before, during =
    Workload.Scenario.in_sim scn (fun () ->
        let nsm =
          Nsm.Hostaddr_nsm_ch.create scn.client_stack
            ~ch_server:(Clearinghouse.Ch_server.addr scn.ch)
            ~credentials:scn.credentials ~domain:scn.ch_domain ~org:scn.ch_org ~cache
            ~cache_ttl_ms:1_000.0 ()
        in
        let ask () =
          call_linked (Nsm.Hostaddr_nsm_ch.impl nsm) ~service:"" ~name:"dandelion"
            ~context:scn.ch_context
        in
        let before = ask () in
        Sim.Engine.sleep 2_000.0;
        let inj =
          Chaos.Injector.install
            [ Chaos.Plan.crash ~host:"dandelion" ~at:(Sim.Engine.time ()) () ]
            scn.net
        in
        let during = ask () in
        Chaos.Injector.uninstall inj;
        (before, during))
  in
  let ch_ip = Ok (Some (Wire.Value.Uint (Transport.Netstack.ip scn.ch_stack))) in
  check_bool "answered while up" true (before = ch_ip);
  check_bool "the old address, while the Clearinghouse is down" true (during = ch_ip);
  check_int "one stale answer" 1 (cache_count cache "hns.cache.stale_served")

let text_nsm_file_location () =
  let scn = Lazy.force scn in
  let r =
    Workload.Scenario.in_sim scn (fun () ->
        let nsm =
          Nsm.File_nsm.create_bind scn.client_stack
            ~bind_server:(Dns.Server.addr scn.public_bind) ()
        in
        call_linked (Nsm.Text_nsm.impl nsm) ~service:""
          ~name:("host00." ^ scn.zone) ~context:scn.bind_context)
  in
  match r with
  | Ok (Some (Wire.Value.Str s)) ->
      check_bool "file location string" true
        (String.length s > 0 && String.sub s 0 8 = "filesrv=")
  | _ -> Alcotest.fail "file NSM should return the TXT payload"

let text_nsm_mailbox_location () =
  let scn = Lazy.force scn in
  let r =
    Workload.Scenario.in_sim scn (fun () ->
        let nsm =
          Nsm.Mail_nsm.create_bind scn.client_stack
            ~bind_server:(Dns.Server.addr scn.public_bind) ()
        in
        call_linked (Nsm.Text_nsm.impl nsm) ~service:""
          ~name:("alice.users." ^ scn.zone) ~context:scn.bind_context)
  in
  match r with
  | Ok (Some (Wire.Value.Str s)) ->
      check_bool "mailbox string" true (String.length s > 8 && String.sub s 0 8 = "mailbox=")
  | _ -> Alcotest.fail "mail NSM should return the mailbox site"

let remote_nsm_same_answers_as_linked () =
  (* The identical-interface claim, across colocation: a remote NSM
     returns the same payload as a linked instance. *)
  let scn = Lazy.force scn in
  let linked, remote =
    Workload.Scenario.in_sim scn (fun () ->
        let nsm = Workload.Scenario.new_binding_nsm_bind scn ~on:scn.client_stack in
        let hns_name = Hns.Hns_name.make ~context:scn.bind_context ~name:scn.service_host in
        let linked =
          Hns.Nsm_intf.call scn.client_stack
            (Hns.Nsm_intf.Linked (Nsm.Binding_nsm_bind.impl nsm))
            ~payload_ty:Hns.Nsm_intf.binding_payload_ty ~service:scn.service_name
            ~hns_name
        in
        let hns = Workload.Scenario.new_hns scn ~on:scn.client_stack in
        let resolved =
          get_ok ~msg:"find"
            (Hns.Client.find_nsm hns ~context:scn.bind_context
               ~query_class:Hns.Query_class.hrpc_binding)
        in
        let remote =
          Hns.Nsm_intf.call scn.client_stack
            (Hns.Nsm_intf.Remote resolved.Hns.Find_nsm.binding)
            ~payload_ty:Hns.Nsm_intf.binding_payload_ty ~service:scn.service_name
            ~hns_name
        in
        (linked, remote))
  in
  match (linked, remote) with
  | Ok (Some a), Ok (Some b) -> check_bool "same payload" true (Wire.Value.equal a b)
  | _ -> Alcotest.fail "both access paths should succeed"

let suite =
  [
    Alcotest.test_case "binding NSM (BIND)" `Quick binding_nsm_bind_resolves;
    Alcotest.test_case "binding NSM prog:vers" `Quick binding_nsm_bind_prog_vers_literal;
    Alcotest.test_case "binding NSM unknown host" `Quick binding_nsm_bind_unknown_host;
    Alcotest.test_case "binding NSM unknown service" `Quick
      binding_nsm_bind_unknown_service_errors;
    Alcotest.test_case "binding NSM caches" `Quick binding_nsm_caches;
    Alcotest.test_case "binding NSM (CH), same interface" `Quick
      binding_nsm_ch_same_interface;
    Alcotest.test_case "host-address NSMs" `Quick hostaddr_nsms_agree_with_sources;
    Alcotest.test_case "CH NSM serves stale in its budget" `Quick ch_nsm_serves_stale;
    Alcotest.test_case "file NSM" `Quick text_nsm_file_location;
    Alcotest.test_case "mail NSM" `Quick text_nsm_mailbox_location;
    Alcotest.test_case "linked = remote answers" `Quick remote_nsm_same_answers_as_linked;
  ]
