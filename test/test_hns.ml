(* Tests for the HNS core: names, the cache, meta schema and client,
   FindNSM, admin, the agent, and the import paths. *)

open Helpers

(* --- HNS names --- *)

let hns_name_basics () =
  let n = Hns.Hns_name.make ~context:"uw-cs" ~name:"fiji.cs.washington.edu" in
  check_string "printed" "uw-cs!fiji.cs.washington.edu" (Hns.Hns_name.to_string n);
  check_bool "parse roundtrip" true
    (Hns.Hns_name.equal n (Hns.Hns_name.of_string (Hns.Hns_name.to_string n)));
  (* individual names may contain '!' *)
  let odd = Hns.Hns_name.of_string "ctx!a!b" in
  check_string "first ! separates" "a!b" odd.Hns.Hns_name.name;
  (match Hns.Hns_name.make ~context:"a!b" ~name:"x" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "context with ! should fail");
  check_bool "value roundtrip" true
    (Hns.Hns_name.equal n (Hns.Hns_name.of_value (Hns.Hns_name.to_value n)))

let query_class_validation () =
  Hns.Query_class.validate Hns.Query_class.hrpc_binding;
  (match Hns.Query_class.validate "has.dot" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "dot should fail");
  match Hns.Query_class.validate "" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty should fail"

(* --- cache --- *)

let sample_value =
  Wire.Value.Array
    [ Wire.Value.Struct [ ("a", Wire.Value.int 1); ("b", Wire.Value.str "x") ] ]

let sample_ty =
  Wire.Idl.T_array (Wire.Idl.T_struct [ ("a", Wire.Idl.T_int); ("b", Wire.Idl.T_string) ])

let cache_hit_returns_equal_value () =
  List.iter
    (fun mode ->
      let c = Hns.Cache.create ~mode () in
      Hns.Cache.insert c ~key:"k" ~ty:sample_ty sample_value;
      (match Hns.Cache.find c ~key:"k" ~ty:sample_ty with
      | Some v -> check_bool "value survives" true (Wire.Value.equal v sample_value)
      | None -> Alcotest.fail "expected hit");
      let count what =
        let mode = if mode = Hns.Cache.Marshalled then "marshalled" else "demarshalled" in
        cache_count c (Printf.sprintf "hns.cache.%s.%s" mode what)
      in
      check_int "hits" 1 (count "hits");
      check_bool "miss on other key" true (Hns.Cache.find c ~key:"other" ~ty:sample_ty = None);
      check_int "misses" 1 (count "misses"))
    [ Hns.Cache.Marshalled; Hns.Cache.Demarshalled ]

let cache_ttl_expiry () =
  let w = make_world ~hosts:1 () in
  in_sim w (fun () ->
      let c = Hns.Cache.create ~mode:Hns.Cache.Demarshalled () in
      Hns.Cache.insert c ~key:"k" ~ty:sample_ty ~ttl_ms:100.0 sample_value;
      check_bool "hit before expiry" true (Hns.Cache.find c ~key:"k" ~ty:sample_ty <> None);
      Sim.Engine.sleep 150.0;
      check_bool "expired" true (Hns.Cache.find c ~key:"k" ~ty:sample_ty = None);
      check_int "size pruned" 0 (Hns.Cache.size c))

let cache_marshalled_charges_generated_cost () =
  let w = make_world ~hosts:1 () in
  let marshalled, demarshalled =
    in_sim w (fun () ->
        let cost mode =
          let c =
            Hns.Cache.create ~mode ~generated_cost:Workload.Calib.generated_cost
              ~hit_overhead_ms:Workload.Calib.cache_hit_overhead_ms
              ~hit_per_node_ms:Workload.Calib.cache_hit_per_node_ms ()
          in
          Hns.Cache.insert c ~key:"k" ~ty:sample_ty sample_value;
          let t0 = Sim.Engine.time () in
          ignore (Hns.Cache.find c ~key:"k" ~ty:sample_ty);
          Sim.Engine.time () -. t0
        in
        (cost Hns.Cache.Marshalled, cost Hns.Cache.Demarshalled))
  in
  check_bool "marshalled hit is much dearer" true (marshalled > 5.0 *. demarshalled);
  check_bool "demarshalled hit under 1ms" true (demarshalled < 1.0)

let cache_stored_bytes () =
  let c = Hns.Cache.create ~mode:Hns.Cache.Marshalled () in
  Hns.Cache.insert c ~key:"k" ~ty:sample_ty sample_value;
  check_bool "bytes counted" true (Hns.Cache.stored_bytes c > 0);
  let d = Hns.Cache.create ~mode:Hns.Cache.Demarshalled () in
  Hns.Cache.insert d ~key:"k" ~ty:sample_ty sample_value;
  check_int "no bytes stored demarshalled" 0 (Hns.Cache.stored_bytes d)

let cache_hit_ratio () =
  let c = Hns.Cache.create ~mode:Hns.Cache.Demarshalled () in
  Hns.Cache.insert c ~key:"k" ~ty:sample_ty sample_value;
  ignore (Hns.Cache.find c ~key:"k" ~ty:sample_ty);
  ignore (Hns.Cache.find c ~key:"nope" ~ty:sample_ty);
  check_float_near "ratio 0.5" 0.5 (Hns.Cache.hit_ratio c)

(* --- meta schema --- *)

let meta_schema_keys () =
  check_string "context key" "uw-cs.ctx.hns-meta"
    (Dns.Name.to_string (Hns.Meta_schema.context_key "uw-cs"));
  check_string "nsm name key" "hrpcbinding.uw-bind.nsm.hns-meta"
    (Dns.Name.to_string
       (Hns.Meta_schema.nsm_name_key ~ns:"UW-BIND" ~query_class:"HRPCBinding"));
  check_string "nsm binding key" "b-bind.nsmbind.hns-meta"
    (Dns.Name.to_string (Hns.Meta_schema.nsm_binding_key "b-bind"));
  (match Hns.Meta_schema.nsm_binding_key "dotted.name" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "dotted NSM name should fail")

let meta_schema_ty_of_key () =
  let has_ty k = Hns.Meta_schema.ty_of_key k <> None in
  check_bool "ctx" true (has_ty (Hns.Meta_schema.context_key "c"));
  check_bool "nsm" true (has_ty (Hns.Meta_schema.nsm_name_key ~ns:"n" ~query_class:"Q"));
  check_bool "nsmbind" true (has_ty (Hns.Meta_schema.nsm_binding_key "x"));
  check_bool "ns" true (has_ty (Hns.Meta_schema.ns_info_key "x"));
  check_bool "foreign name" false (has_ty (Dns.Name.of_string "a.b.c"))

let meta_schema_value_roundtrips () =
  let ns =
    {
      Hns.Meta_schema.ns_type = "bind";
      ns_host = "samoa.cs.washington.edu";
      ns_host_context = "uw-cs";
      ns_port = 53;
    }
  in
  check_bool "ns_info" true
    (Hns.Meta_schema.ns_info_of_value (Hns.Meta_schema.ns_info_to_value ns) = ns);
  let nsm =
    {
      Hns.Meta_schema.nsm_host = "niue.cs.washington.edu";
      nsm_host_context = "uw-cs";
      nsm_port = 1234;
      nsm_prog = 390100;
      nsm_vers = 1;
      nsm_suite = Hrpc.Component.courier_suite;
    }
  in
  check_bool "nsm_info" true
    (Hns.Meta_schema.nsm_info_of_value (Hns.Meta_schema.nsm_info_to_value nsm) = nsm)

(* --- scenario-backed integration --- *)

let scn = lazy (Workload.Scenario.build ())

let find_nsm_designates () =
  let scn = Lazy.force scn in
  let resolved =
    Workload.Scenario.in_sim scn (fun () ->
        let hns = Workload.Scenario.new_hns scn ~on:scn.client_stack in
        get_ok ~msg:"find_nsm"
          (Hns.Client.find_nsm hns ~context:scn.bind_context
             ~query_class:Hns.Query_class.hrpc_binding))
  in
  check_string "ns" "UW-BIND" resolved.Hns.Find_nsm.ns_name;
  check_string "nsm" scn.nsm_binding_bind resolved.Hns.Find_nsm.nsm_name;
  check_bool "binding points at NSM host" true
    (resolved.Hns.Find_nsm.binding.Hrpc.Binding.server.Transport.Address.ip
    = Transport.Netstack.ip scn.nsm_stack)

let find_nsm_unknown_context () =
  let scn = Lazy.force scn in
  let r =
    Workload.Scenario.in_sim scn (fun () ->
        let hns = Workload.Scenario.new_hns scn ~on:scn.client_stack in
        Hns.Client.find_nsm hns ~context:"mars" ~query_class:Hns.Query_class.hrpc_binding)
  in
  check_bool "unknown context" true (r = Error (Hns.Errors.Unknown_context "mars"))

let find_nsm_no_nsm_for_class () =
  let scn = Lazy.force scn in
  let r =
    Workload.Scenario.in_sim scn (fun () ->
        let hns = Workload.Scenario.new_hns scn ~on:scn.client_stack in
        Hns.Client.find_nsm hns ~context:scn.ch_context
          ~query_class:Hns.Query_class.file_location)
  in
  match r with
  | Error (Hns.Errors.No_nsm { ns = "PARC-CH"; _ }) -> ()
  | _ -> Alcotest.fail "expected No_nsm for CH FileLocation"

let resolve_host_address_query () =
  let scn = Lazy.force scn in
  let r =
    Workload.Scenario.in_sim scn (fun () ->
        let hns = Workload.Scenario.new_hns scn ~on:scn.client_stack in
        get_ok ~msg:"resolve"
          (Hns.Client.resolve hns ~query_class:Hns.Query_class.host_address
             ~payload_ty:Hns.Nsm_intf.host_address_payload_ty
             (Hns.Hns_name.make ~context:scn.bind_context ~name:scn.service_host)))
  in
  check_bool "service host IP" true
    (r = Some (Wire.Value.Uint (Transport.Netstack.ip scn.service_stack)))

let resolve_through_clearinghouse () =
  (* The same client interface answers from the Xerox world. *)
  let scn = Lazy.force scn in
  let r =
    Workload.Scenario.in_sim scn (fun () ->
        let hns = Workload.Scenario.new_hns scn ~on:scn.client_stack in
        get_ok ~msg:"resolve"
          (Hns.Client.resolve hns ~query_class:Hns.Query_class.host_address
             ~payload_ty:Hns.Nsm_intf.host_address_payload_ty
             (Hns.Hns_name.make ~context:scn.ch_context ~name:"dandelion")))
  in
  check_bool "CH host IP" true
    (r = Some (Wire.Value.Uint (Transport.Netstack.ip scn.ch_stack)))

let import_all_arrangements () =
  let scn = Lazy.force scn in
  List.iter
    (fun arrangement ->
      let b =
        Workload.Scenario.in_sim scn (fun () ->
            let p = Workload.Scenario.arrange scn arrangement in
            let r =
              Hns.Import.import p.env arrangement ~service:scn.service_name
                (Hns.Hns_name.make ~context:scn.bind_context ~name:scn.service_host)
            in
            Workload.Scenario.stop_parties p;
            r)
      in
      match b with
      | Ok b ->
          if not (Hrpc.Binding.equal b scn.expected_sun_binding) then
            Alcotest.failf "%s: wrong binding"
              (Hns.Import.arrangement_name arrangement)
      | Error e ->
          Alcotest.failf "%s: %s"
            (Hns.Import.arrangement_name arrangement)
            (Hns.Errors.to_string e))
    Hns.Import.all_arrangements

let import_unknown_service_not_found () =
  let scn = Lazy.force scn in
  let r =
    Workload.Scenario.in_sim scn (fun () ->
        let p = Workload.Scenario.arrange scn Hns.Import.All_linked in
        let r =
          Hns.Import.import p.env Hns.Import.All_linked ~service:"55555:1"
            (Hns.Hns_name.make ~context:scn.bind_context ~name:scn.service_host)
        in
        Workload.Scenario.stop_parties p;
        r)
  in
  match r with
  | Error (Hns.Errors.Name_not_found _) -> ()
  | _ -> Alcotest.fail "unregistered program should be not-found"

let import_then_call_service () =
  (* End-to-end: import a binding through the HNS and actually call
     the service with it. *)
  let scn = Lazy.force scn in
  let reply =
    Workload.Scenario.in_sim scn (fun () ->
        let p = Workload.Scenario.arrange scn Hns.Import.All_linked in
        let binding =
          get_ok ~msg:"import"
            (Hns.Import.import p.env Hns.Import.All_linked ~service:scn.service_name
               (Hns.Hns_name.make ~context:scn.bind_context ~name:scn.service_host))
        in
        Workload.Scenario.stop_parties p;
        Hrpc.Client.call scn.client_stack binding ~procnum:1
          ~sign:(Wire.Idl.signature ~arg:Wire.Idl.T_string ~res:Wire.Idl.T_string)
          (Wire.Value.Str "through the HNS"))
  in
  check_bool "service answers" true (reply = Ok (Wire.Value.Str "through the HNS"))

let import_courier_service () =
  (* Importing from the Clearinghouse context yields a Courier binding
     with the identical client interface. *)
  let scn = Lazy.force scn in
  let b =
    Workload.Scenario.in_sim scn (fun () ->
        let hns = Workload.Scenario.new_hns scn ~on:scn.client_stack in
        let env = Hns.Import.env ~stack:scn.client_stack ~local_hns:hns () in
        get_ok ~msg:"import ch"
          (Hns.Import.import env Hns.Import.Remote_nsms ~service:""
             (Hns.Hns_name.make ~context:scn.ch_context ~name:scn.courier_service_name)))
  in
  check_bool "courier binding" true (Hrpc.Binding.equal b scn.expected_courier_binding)

let dynamic_update_visible_through_hns () =
  (* The direct-access property: a native update to BIND is visible
     through the HNS with no reregistration. *)
  let scn = Lazy.force scn in
  let before, after =
    Workload.Scenario.in_sim scn (fun () ->
        let hns = Workload.Scenario.new_hns scn ~on:scn.client_stack in
        let name = Hns.Hns_name.make ~context:scn.bind_context ~name:("fresh." ^ scn.zone) in
        let q () =
          get_ok ~msg:"resolve"
            (Hns.Client.resolve hns ~query_class:Hns.Query_class.host_address
               ~payload_ty:Hns.Nsm_intf.host_address_payload_ty name)
        in
        let before = q () in
        (* A native application adds a host record directly in BIND:
           our public zone is static, so write into the db the way a
           local tool would. *)
        Dns.Db.add (Dns.Zone.db scn.public_zone)
          (Dns.Rr.make (Dns.Name.of_string ("fresh." ^ scn.zone)) (Dns.Rr.A 0x0A00BEEFl));
        (before, q ()))
  in
  check_bool "absent before" true (before = None);
  check_bool "visible after with no reregistration" true
    (after = Some (Wire.Value.Uint 0x0A00BEEFl))

let agent_find_nsm_remote () =
  let scn = Lazy.force scn in
  let nsm_name, binding =
    Workload.Scenario.in_sim scn (fun () ->
        let hns = Workload.Scenario.new_hns scn ~on:scn.agent_stack in
        let agent = Hns.Agent.create hns () in
        Hns.Agent.start agent;
        let r =
          get_ok ~msg:"remote find"
            (Hns.Agent.remote_find_nsm scn.client_stack ~agent:(Hns.Agent.binding agent)
               ~context:scn.bind_context ~query_class:Hns.Query_class.hrpc_binding)
        in
        Hns.Agent.stop agent;
        r)
  in
  check_string "nsm name over the wire" scn.nsm_binding_bind nsm_name;
  check_bool "binding survives the wire" true
    (binding.Hrpc.Binding.server.Transport.Address.ip = Transport.Netstack.ip scn.nsm_stack)

let agent_error_propagates () =
  let scn = Lazy.force scn in
  let r =
    Workload.Scenario.in_sim scn (fun () ->
        let hns = Workload.Scenario.new_hns scn ~on:scn.agent_stack in
        let agent = Hns.Agent.create hns () in
        Hns.Agent.start agent;
        let r =
          Hns.Agent.remote_find_nsm scn.client_stack ~agent:(Hns.Agent.binding agent)
            ~context:"nowhere" ~query_class:Hns.Query_class.hrpc_binding
        in
        Hns.Agent.stop agent;
        r)
  in
  match r with
  | Error (Hns.Errors.Nsm_error m) ->
      check_bool "carries the remote error text" true (String.length m > 0)
  | _ -> Alcotest.fail "agent should relay the error"

let admin_remove_context () =
  let scn = Lazy.force scn in
  Workload.Scenario.in_sim scn (fun () ->
      let hns = Workload.Scenario.new_hns scn ~on:scn.client_stack in
      let meta = Hns.Client.meta hns in
      get_ok ~msg:"register"
        (Hns.Admin.register_context meta ~context:"temp-ctx" ~ns:"UW-BIND");
      (match Hns.Client.find_nsm hns ~context:"temp-ctx" ~query_class:Hns.Query_class.hrpc_binding with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "temp context should resolve: %s" (Hns.Errors.to_string e));
      get_ok ~msg:"remove" (Hns.Admin.remove_context meta ~context:"temp-ctx");
      Hns.Client.flush_cache hns;
      match Hns.Client.find_nsm hns ~context:"temp-ctx" ~query_class:Hns.Query_class.hrpc_binding with
      | Error (Hns.Errors.Unknown_context _) -> ()
      | _ -> Alcotest.fail "removed context should be unknown")

let preload_seeds_cache () =
  let scn = Lazy.force scn in
  let seeded, lookups =
    Workload.Scenario.in_sim scn (fun () ->
        let hns = Workload.Scenario.new_hns scn ~on:scn.client_stack in
        let seeded = get_ok ~msg:"preload" (Hns.Client.preload hns) in
        ignore
          (get_ok ~msg:"find"
             (Hns.Client.find_nsm hns ~context:scn.bind_context
                ~query_class:Hns.Query_class.hrpc_binding));
        (seeded, meta_count (Hns.Client.meta hns) "hns.meta.remote_lookups"))
  in
  check_bool "many mappings seeded" true (seeded >= 10);
  check_int "no meta lookups after preload" 0 lookups

let suite =
  [
    Alcotest.test_case "hns name basics" `Quick hns_name_basics;
    Alcotest.test_case "query class validation" `Quick query_class_validation;
    Alcotest.test_case "cache hit value" `Quick cache_hit_returns_equal_value;
    Alcotest.test_case "cache TTL expiry" `Quick cache_ttl_expiry;
    Alcotest.test_case "cache marshalling cost" `Quick cache_marshalled_charges_generated_cost;
    Alcotest.test_case "cache stored bytes" `Quick cache_stored_bytes;
    Alcotest.test_case "cache hit ratio" `Quick cache_hit_ratio;
    Alcotest.test_case "meta keys" `Quick meta_schema_keys;
    Alcotest.test_case "meta ty_of_key" `Quick meta_schema_ty_of_key;
    Alcotest.test_case "meta value roundtrips" `Quick meta_schema_value_roundtrips;
    Alcotest.test_case "FindNSM designates" `Quick find_nsm_designates;
    Alcotest.test_case "unknown context" `Quick find_nsm_unknown_context;
    Alcotest.test_case "no NSM for class" `Quick find_nsm_no_nsm_for_class;
    Alcotest.test_case "HostAddress query" `Quick resolve_host_address_query;
    Alcotest.test_case "CH via same interface" `Quick resolve_through_clearinghouse;
    Alcotest.test_case "import: all arrangements" `Quick import_all_arrangements;
    Alcotest.test_case "import: unknown service" `Quick import_unknown_service_not_found;
    Alcotest.test_case "import then call" `Quick import_then_call_service;
    Alcotest.test_case "import courier service" `Quick import_courier_service;
    Alcotest.test_case "direct access: update visible" `Quick
      dynamic_update_visible_through_hns;
    Alcotest.test_case "agent remote FindNSM" `Quick agent_find_nsm_remote;
    Alcotest.test_case "agent error relay" `Quick agent_error_propagates;
    Alcotest.test_case "admin remove context" `Quick admin_remove_context;
    Alcotest.test_case "preload seeds cache" `Quick preload_seeds_cache;
  ]

let walk_log_shows_six_mappings () =
  let scn = Lazy.force scn in
  let cold, warm =
    Workload.Scenario.in_sim scn (fun () ->
        let hns = Workload.Scenario.new_hns scn ~on:scn.client_stack in
        let meta = Hns.Client.meta hns in
        ignore
          (get_ok ~msg:"cold"
             (Hns.Client.find_nsm hns ~context:scn.bind_context
                ~query_class:Hns.Query_class.hrpc_binding));
        let cold = Hns.Meta_client.walk_log meta in
        Hns.Meta_client.clear_walk_log meta;
        ignore
          (get_ok ~msg:"warm"
             (Hns.Client.find_nsm hns ~context:scn.bind_context
                ~query_class:Hns.Query_class.hrpc_binding));
        (cold, Hns.Meta_client.walk_log meta))
  in
  check_int "six mappings cold" 6 (List.length cold);
  check_int "six mappings warm" 6 (List.length warm);
  check_bool "warm walk is all hits" true (List.for_all (fun (_, hit, _) -> hit) warm);
  check_bool "cold walk has misses" true
    (List.exists (fun (_, hit, _) -> not hit) cold);
  (* the warm walk costs the paper's 88 ms *)
  let warm_total = List.fold_left (fun acc (_, _, c) -> acc +. c) 0.0 warm in
  check_bool "warm mappings sum to ~88ms" true (warm_total > 80.0 && warm_total < 96.0)

let walk_suite = [ Alcotest.test_case "walk log: six mappings" `Quick walk_log_shows_six_mappings ]

let suite = suite @ walk_suite
