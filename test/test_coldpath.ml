(* Cold-path collapse: negative caching, the LRU capacity bound,
   batched FindNSM meta queries (the bundle), AXFR cache preloading,
   and request coalescing. *)

open Helpers

let sample_value = Wire.Value.Str "payload"
let sample_ty = Wire.Idl.T_string

(* --- negative caching (cache unit tests) --- *)

let negative_ttl_expiry_and_non_poisoning () =
  let w = make_world ~hosts:1 () in
  in_sim w (fun () ->
      let c = Hns.Cache.create ~mode:Hns.Cache.Demarshalled () in
      let no_fetch () = Alcotest.fail "a fresh entry must answer without a fetch" in
      Hns.Cache.insert_negative c ~key:"k" ~ttl_ms:100.0;
      (match Hns.Cache.through c ~key:"k" ~ty:sample_ty ~fetch:no_fetch with
      | Hns.Cache.Negative_hit -> ()
      | _ -> Alcotest.fail "expected negative hit");
      check_int "neg hit counted" 1 (cache_count c "hns.cache.neg_hits");
      check_int "not a positive hit" 0
        (cache_count c "hns.cache.demarshalled.hits");
      check_bool "find maps negatives to None" true
        (Hns.Cache.find c ~key:"k" ~ty:sample_ty = None);
      (* A later positive insert overwrites the cached absence: a
         negative can never poison a subsequent successful lookup. *)
      Hns.Cache.insert c ~key:"k" ~ty:sample_ty sample_value;
      (match Hns.Cache.through c ~key:"k" ~ty:sample_ty ~fetch:no_fetch with
      | Hns.Cache.Hit v ->
          check_bool "value survives" true (Wire.Value.equal v sample_value)
      | _ -> Alcotest.fail "positive insert must override the negative");
      (* Negatives never outlive their TTL, even under a generous
         staleness budget: a stale "no" is worth nothing. *)
      let c2 =
        Hns.Cache.create ~mode:Hns.Cache.Demarshalled
          ~staleness_budget_ms:10_000.0 ()
      in
      Hns.Cache.insert_negative c2 ~key:"gone" ~ttl_ms:50.0;
      Sim.Engine.sleep 75.0;
      (match Hns.Cache.through c2 ~key:"gone" ~ty:sample_ty ~fetch:(fun () -> Error ()) with
      | Hns.Cache.Failed () -> ()
      | _ -> Alcotest.fail "expired negative must miss, and is never served stale");
      check_bool "the expired negative is gone" true (Hns.Cache.probe c2 ~key:"gone" = None))

(* --- LRU capacity bound --- *)

let lru_bound_evicts_least_recently_used () =
  let w = make_world ~hosts:1 () in
  in_sim w (fun () ->
      let c =
        Hns.Cache.create ~mode:Hns.Cache.Demarshalled ~max_entries:3 ()
      in
      Hns.Cache.insert c ~key:"a" ~ty:sample_ty sample_value;
      Hns.Cache.insert c ~key:"b" ~ty:sample_ty sample_value;
      Hns.Cache.insert c ~key:"c" ~ty:sample_ty sample_value;
      (* Touch "a" and "b" so "c" is the least recently used. *)
      ignore (Hns.Cache.find c ~key:"a" ~ty:sample_ty);
      ignore (Hns.Cache.find c ~key:"b" ~ty:sample_ty);
      Hns.Cache.insert c ~key:"d" ~ty:sample_ty sample_value;
      check_int "still at capacity" 3 (Hns.Cache.size c);
      check_int "one eviction" 1 (cache_count c "hns.cache.evictions");
      check_bool "LRU victim gone" true
        (Hns.Cache.find c ~key:"c" ~ty:sample_ty = None);
      check_bool "recently used survive" true
        (Hns.Cache.find c ~key:"a" ~ty:sample_ty <> None
        && Hns.Cache.find c ~key:"b" ~ty:sample_ty <> None
        && Hns.Cache.find c ~key:"d" ~ty:sample_ty <> None);
      (* Overwriting an existing key never evicts. *)
      Hns.Cache.insert c ~key:"d" ~ty:sample_ty sample_value;
      check_int "replacement is not an insert" 1 (cache_count c "hns.cache.evictions");
      match Hns.Cache.create ~mode:Hns.Cache.Demarshalled ~max_entries:0 () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "max_entries 0 should be rejected")

let cache_preload_bulk_insert () =
  let w = make_world ~hosts:1 () in
  in_sim w (fun () ->
      let c = Hns.Cache.create ~mode:Hns.Cache.Demarshalled () in
      let entries =
        List.init 5 (fun i ->
            (Printf.sprintf "key%d" i, sample_ty, 60_000.0, sample_value))
      in
      check_int "all seeded" 5 (Hns.Cache.preload c entries);
      check_int "counter" 5 (cache_count c "hns.cache.preloaded");
      check_bool "seeded entries hit" true
        (Hns.Cache.find c ~key:"key3" ~ty:sample_ty <> None))

(* --- scenario-backed: bundle, preload, coalescing --- *)

let legacy_scn = lazy (Workload.Scenario.build ())
let bundle_scn = lazy (Workload.Scenario.build ~bundle:true ())

let cold_find ?enable_bundle ?negative_ttl_ms scn ~query_class =
  Workload.Scenario.in_sim scn (fun () ->
      let hns =
        Workload.Scenario.new_hns ?enable_bundle ?negative_ttl_ms scn
          ~on:scn.Workload.Scenario.client_stack
      in
      let r =
        Hns.Client.find_nsm hns ~context:scn.Workload.Scenario.bind_context
          ~query_class
      in
      (r, meta_count (Hns.Client.meta hns) "hns.meta.remote_lookups"))

let bundle_matches_legacy_walk () =
  let legacy = Lazy.force legacy_scn and bundle = Lazy.force bundle_scn in
  List.iter
    (fun query_class ->
      let lr, ll = cold_find legacy ~query_class in
      let br, bl = cold_find bundle ~query_class in
      let l = get_ok ~msg:"legacy find_nsm" lr
      and b = get_ok ~msg:"bundled find_nsm" br in
      check_string "same name service" l.Hns.Find_nsm.ns_name
        b.Hns.Find_nsm.ns_name;
      check_string "same designated NSM" l.Hns.Find_nsm.nsm_name
        b.Hns.Find_nsm.nsm_name;
      check_bool "same binding" true
        (Hrpc.Binding.equal l.Hns.Find_nsm.binding b.Hns.Find_nsm.binding);
      check_int "one round trip when bundled" 1 bl;
      check_bool "bundle strictly cheaper in round trips" true (bl < ll))
    [ Hns.Query_class.hrpc_binding; Hns.Query_class.host_address ]

let bundle_falls_back_on_old_server () =
  (* enable_bundle against a meta server with no bundle answerer: the
     NXDOMAIN probe downgrades the client to per-mapping walks and the
     result is unchanged. *)
  let legacy = Lazy.force legacy_scn in
  let r, _ =
    cold_find legacy ~enable_bundle:true
      ~query_class:Hns.Query_class.hrpc_binding
  in
  let plain, _ = cold_find legacy ~query_class:Hns.Query_class.hrpc_binding in
  let a = get_ok ~msg:"bundle-enabled find" r
  and b = get_ok ~msg:"plain find" plain in
  check_string "same NSM despite fallback" b.Hns.Find_nsm.nsm_name
    a.Hns.Find_nsm.nsm_name

let bundle_fallback_memoized () =
  (* The unsupported answer is remembered: the second cold FindNSM on
     the same instance must not pay the probe round trip again. *)
  let legacy = Lazy.force legacy_scn in
  Workload.Scenario.in_sim legacy (fun () ->
      let hns =
        Workload.Scenario.new_hns ~enable_bundle:true legacy
          ~on:legacy.Workload.Scenario.client_stack
      in
      let find () =
        ignore
          (get_ok ~msg:"find"
             (Hns.Client.find_nsm hns
                ~context:legacy.Workload.Scenario.bind_context
                ~query_class:Hns.Query_class.hrpc_binding))
      in
      find ();
      let after_first = meta_count (Hns.Client.meta hns) "hns.meta.remote_lookups" in
      Hns.Client.flush_cache hns;
      find ();
      let after_second = meta_count (Hns.Client.meta hns) "hns.meta.remote_lookups" in
      (* First cold walk paid the probe + the full walk; the second
         cold walk pays only the walk. *)
      check_int "no second probe" (after_first - 1)
        (after_second - after_first))

let negative_cache_absorbs_repeat_misses () =
  let legacy = Lazy.force legacy_scn in
  Workload.Scenario.in_sim legacy (fun () ->
      let hns =
        Workload.Scenario.new_hns ~negative_ttl_ms:200.0 legacy
          ~on:legacy.Workload.Scenario.client_stack
      in
      let meta = Hns.Client.meta hns in
      let find () =
        match
          Hns.Client.find_nsm hns ~context:"mars"
            ~query_class:Hns.Query_class.hrpc_binding
        with
        | Error (Hns.Errors.Unknown_context "mars") -> ()
        | _ -> Alcotest.fail "expected Unknown_context"
      in
      find ();
      let l1 = meta_count meta "hns.meta.remote_lookups" in
      check_int "one probe for the unknown context" 1 l1;
      find ();
      check_int "negative hit, no second round trip" l1
        (meta_count meta "hns.meta.remote_lookups");
      check_bool "counted as a negative hit" true
        (cache_count (Hns.Client.cache hns) "hns.cache.neg_hits" >= 1);
      (* After the (short) negative TTL the absence is re-verified. *)
      Sim.Engine.sleep 250.0;
      find ();
      check_int "re-probed after expiry" (l1 + 1)
        (meta_count meta "hns.meta.remote_lookups"))

let negative_cache_short_circuits_bundle () =
  (* Same shape with the bundle on: the cached absence must answer
     before a second bundle round trip is issued. *)
  let bundle = Lazy.force bundle_scn in
  Workload.Scenario.in_sim bundle (fun () ->
      let hns =
        Workload.Scenario.new_hns ~negative_ttl_ms:200.0 bundle
          ~on:bundle.Workload.Scenario.client_stack
      in
      let meta = Hns.Client.meta hns in
      let find () =
        match
          Hns.Client.find_nsm hns ~context:"mars"
            ~query_class:Hns.Query_class.hrpc_binding
        with
        | Error (Hns.Errors.Unknown_context "mars") -> ()
        | _ -> Alcotest.fail "expected Unknown_context"
      in
      find ();
      let l1 = meta_count meta "hns.meta.remote_lookups" in
      find ();
      check_int "no second bundle query" l1
        (meta_count meta "hns.meta.remote_lookups"))

let preload_then_resolve_no_meta_traffic () =
  (* AXFR preload, then a full resolution (FindNSM + remote NSM call):
     regression that the meta server sees zero queries from it. *)
  let legacy = Lazy.force legacy_scn in
  Workload.Scenario.in_sim legacy (fun () ->
      let hns =
        Workload.Scenario.new_hns legacy
          ~on:legacy.Workload.Scenario.client_stack
      in
      let seeded = get_ok ~msg:"preload" (Hns.Client.preload hns) in
      check_bool "zone transferred" true (seeded >= 10);
      let r =
        get_ok ~msg:"resolve"
          (Hns.Client.resolve hns ~query_class:Hns.Query_class.host_address
             ~payload_ty:Hns.Nsm_intf.host_address_payload_ty
             (Hns.Hns_name.make ~context:legacy.Workload.Scenario.bind_context
                ~name:legacy.Workload.Scenario.service_host))
      in
      check_bool "resolution still correct" true
        (r
        = Some
            (Wire.Value.Uint
               (Transport.Netstack.ip legacy.Workload.Scenario.service_stack)));
      check_int "zero meta round trips" 0
        (meta_count (Hns.Client.meta hns) "hns.meta.remote_lookups");
      check_bool "zone serial captured for refresh" true
        (Hns.Meta_client.zone_serial (Hns.Client.meta hns) <> None))

let preload_refresher_tracks_serial () =
  let legacy = Lazy.force legacy_scn in
  Workload.Scenario.in_sim legacy (fun () ->
      let hns =
        Workload.Scenario.new_hns legacy
          ~on:legacy.Workload.Scenario.client_stack
      in
      ignore (get_ok ~msg:"preload" (Hns.Client.preload hns));
      let serial0 = Hns.Meta_client.zone_serial (Hns.Client.meta hns) in
      let stop = Hns.Client.start_preload_refresher ~interval_ms:500.0 hns in
      (* A registration bumps the zone serial; the refresher should
         notice on its next probe and re-preload. *)
      let admin =
        Workload.Scenario.new_hns legacy
          ~on:legacy.Workload.Scenario.agent_stack
      in
      ignore
        (get_ok ~msg:"register"
           (Hns.Admin.register_context
              (Hns.Client.meta admin)
              ~context:"coldpath-tmp" ~ns:"UW-BIND"));
      Sim.Engine.sleep 1_200.0;
      stop ();
      let serial1 = Hns.Meta_client.zone_serial (Hns.Client.meta hns) in
      check_bool "serial advanced after refresh" true (serial1 > serial0);
      (* The refreshed cache covers the new registration locally. *)
      ignore
        (get_ok ~msg:"find after refresh"
           (Hns.Client.find_nsm hns ~context:"coldpath-tmp"
              ~query_class:Hns.Query_class.hrpc_binding));
      ignore
        (get_ok ~msg:"cleanup"
           (Hns.Admin.remove_context (Hns.Client.meta admin)
              ~context:"coldpath-tmp")))

(* --- request coalescing --- *)

(* N concurrent identical cold FindNSMs through one instance: exactly
   one leader performs the remote lookup(s); the other N-1 ride it. *)
let coalescing_lookups scn ~waiters =
  Workload.Scenario.in_sim scn (fun () ->
      let hns =
        Workload.Scenario.new_hns scn ~on:scn.Workload.Scenario.client_stack
      in
      let mb = Sim.Engine.Mailbox.create () in
      for i = 1 to waiters do
        Sim.Engine.spawn_child ~name:(Printf.sprintf "c%d" i) (fun () ->
            Sim.Engine.Mailbox.send mb
              (Hns.Client.find_nsm hns
                 ~context:scn.Workload.Scenario.bind_context
                 ~query_class:Hns.Query_class.hrpc_binding))
      done;
      let results = List.init waiters (fun _ -> Sim.Engine.Mailbox.recv mb) in
      (results, meta_count (Hns.Client.meta hns) "hns.meta.remote_lookups"))

let coalesced_counter () =
  match Obs.Metrics.value (Obs.Metrics.counter "hns.find_nsm.coalesced") with
  | n -> n

let coalescing_property =
  QCheck.Test.make ~name:"N concurrent identical misses -> one remote lookup"
    ~count:6
    QCheck.(int_range 2 8)
    (fun waiters ->
      let bundle = Lazy.force bundle_scn in
      let before = coalesced_counter () in
      let results, lookups = coalescing_lookups bundle ~waiters in
      List.iter
        (fun r -> ignore (get_ok ~msg:"coalesced find_nsm" r))
        results;
      lookups = 1 && coalesced_counter () - before = waiters - 1)

let coalescing_legacy_walk () =
  (* Without the bundle the leader's walk takes several round trips —
     but concurrency must not multiply them. *)
  let legacy = Lazy.force legacy_scn in
  let _, solo = coalescing_lookups legacy ~waiters:1 in
  let results, stampede = coalescing_lookups legacy ~waiters:6 in
  List.iter (fun r -> ignore (get_ok ~msg:"find_nsm" r)) results;
  check_int "six concurrent finds cost one walk" solo stampede

let coalescing_transparent_sequentially () =
  (* Sequential callers never observe the singleflight table: a second
     find after the first completes is an ordinary warm walk. *)
  let legacy = Lazy.force legacy_scn in
  let before = coalesced_counter () in
  Workload.Scenario.in_sim legacy (fun () ->
      let hns =
        Workload.Scenario.new_hns legacy
          ~on:legacy.Workload.Scenario.client_stack
      in
      let find () =
        get_ok ~msg:"find"
          (Hns.Client.find_nsm hns
             ~context:legacy.Workload.Scenario.bind_context
             ~query_class:Hns.Query_class.hrpc_binding)
      in
      let a = find () and b = find () in
      check_string "stable answer" a.Hns.Find_nsm.nsm_name
        b.Hns.Find_nsm.nsm_name);
  check_int "nothing coalesced" before (coalesced_counter ())

let suite =
  [
    Alcotest.test_case "negative TTL expiry and non-poisoning" `Quick
      negative_ttl_expiry_and_non_poisoning;
    Alcotest.test_case "LRU bound evicts least recently used" `Quick
      lru_bound_evicts_least_recently_used;
    Alcotest.test_case "Cache.preload bulk insert" `Quick
      cache_preload_bulk_insert;
    Alcotest.test_case "bundle matches the legacy walk" `Quick
      bundle_matches_legacy_walk;
    Alcotest.test_case "bundle falls back on old servers" `Quick
      bundle_falls_back_on_old_server;
    Alcotest.test_case "bundle fallback memoized" `Quick
      bundle_fallback_memoized;
    Alcotest.test_case "negative cache absorbs repeat misses" `Quick
      negative_cache_absorbs_repeat_misses;
    Alcotest.test_case "negative cache short-circuits the bundle" `Quick
      negative_cache_short_circuits_bundle;
    Alcotest.test_case "preload then resolve: no meta traffic" `Quick
      preload_then_resolve_no_meta_traffic;
    Alcotest.test_case "preload refresher tracks the zone serial" `Quick
      preload_refresher_tracks_serial;
    qtest coalescing_property;
    Alcotest.test_case "coalescing under the legacy walk" `Quick
      coalescing_legacy_walk;
    Alcotest.test_case "coalescing transparent sequentially" `Quick
      coalescing_transparent_sequentially;
  ]
