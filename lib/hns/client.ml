type t = {
  stack_ : Transport.Netstack.stack;
  meta_ : Meta_client.t;
  finder_ : Find_nsm.t;
  rpc_policy : Rpc.Control.retry_policy option;
}

let create stack ~meta_server ?fallback_servers ?replica_set ?cache ?generated_cost
    ?hand_codec ?hand_preload_record_ms ?preload_record_ms ?mapping_overhead_ms
    ?enable_bundle ?negative_ttl_ms ?rpc_policy () =
  let cache =
    match cache with
    | Some c -> c
    | None -> Cache.create ~mode:Cache.Demarshalled ()
  in
  let meta =
    Meta_client.create stack ~meta_server ?fallback_servers ?replica_set ~cache
      ?generated_cost ?hand_codec ?hand_preload_record_ms ?preload_record_ms
      ?mapping_overhead_ms ?enable_bundle ?negative_ttl_ms ?policy:rpc_policy ()
  in
  { stack_ = stack; meta_ = meta; finder_ = Find_nsm.create ~meta (); rpc_policy }

let stack t = t.stack_
let meta t = t.meta_
let finder t = t.finder_
let cache t = Meta_client.cache t.meta_
let link_hostaddr_nsm t ~name impl = Find_nsm.link_hostaddr_nsm t.finder_ ~name impl
let find_nsm t ~context ~query_class = Find_nsm.find t.finder_ ~context ~query_class

let m_resolves = Obs.Metrics.counter "hns.client.resolves"
let m_resolve_errors = Obs.Metrics.counter "hns.client.resolve_errors"

(* Per-query-class latency: one histogram per class, named
   hns.client.resolve_ms.<class>. Resolved per call — the class set is
   tiny and the registry lookup is one hashtable probe. *)
let resolve_ms_hist query_class =
  Obs.Metrics.histogram
    ("hns.client.resolve_ms." ^ String.lowercase_ascii query_class)

(* Errors meaning "that NSM is unreachable" — worth trying an
   alternate. Application-level errors (not-found, protocol) are
   returned as-is: another NSM would answer the same way. *)
let unreachable = function
  | Errors.Rpc_error (Rpc.Control.Timeout _ | Rpc.Control.Refused) -> true
  | _ -> false

let resolve t ~query_class ~payload_ty ?(service = "") hns_name =
  Obs.Metrics.incr m_resolves;
  Obs.Qlog.with_query ~name:(Hns_name.to_string hns_name) ~query_class (fun () ->
  Obs.Metrics.time (resolve_ms_hist query_class) (fun () ->
      let t0 = Sim.Engine.time () in
      let call_nsm binding =
        Nsm_intf.call ?policy:t.rpc_policy t.stack_ (Nsm_intf.Remote binding)
          ~payload_ty ~service ~hns_name
      in
      let result =
        Obs.Span.with_span "resolve"
          ~attrs:(fun () ->
            [ ("name", Hns_name.to_string hns_name); ("query_class", query_class) ])
          (fun () ->
            (* The resolve span roots this query's trace; patch it onto
               the flight record (which opened before the span did). *)
            Obs.Qlog.note_trace (Obs.Span.current_trace ());
            let answer =
            match find_nsm t ~context:hns_name.Hns_name.context ~query_class with
            | Error _ as e -> e
            | Ok resolved -> (
                (* Resolve-tail short circuit: on the bundle path the
                   FindNSM above may have just prefetched (or an
                   earlier walk cached) this very host's address —
                   answer from the shared cache and skip the trailing
                   remote NSM data round trip. Gated on the bundle so
                   legacy configurations keep the paper's two-phase
                   resolve shape. *)
                let cached_addr =
                  if
                    query_class = Query_class.host_address
                    && service = ""
                    && Meta_client.bundle_enabled t.meta_
                  then
                    Meta_client.cached_host_addr t.meta_
                      ~context:hns_name.Hns_name.context
                      ~host:hns_name.Hns_name.name
                  else None
                in
                match cached_addr with
                | Some ip ->
                    Obs.Span.add_attr "addr_cache" "true";
                    Ok (Some (Wire.Value.Uint ip))
                | None ->
                    let outcome =
                      match call_nsm resolved.Find_nsm.binding with
                      | Error primary_err when unreachable primary_err ->
                          (* Designated NSM is down or cut off: fail over
                             across the registered alternates. *)
                          let rec try_alternates = function
                            | [] -> Error primary_err
                            | (alt : Find_nsm.resolved) :: rest -> (
                                Find_nsm.note_failover ();
                                Obs.Qlog.note_outcome Obs.Qlog.Failover;
                                Obs.Span.add_attr "failover" alt.Find_nsm.nsm_name;
                                match call_nsm alt.Find_nsm.binding with
                                | Error e when unreachable e -> try_alternates rest
                                | outcome -> outcome)
                          in
                          try_alternates
                            (Find_nsm.failover_candidates t.finder_ resolved
                               ~query_class)
                      | outcome -> outcome
                    in
                    (* Demand-fill the shared address cache on the
                       bundle path, exactly as a prefetched hint would
                       have: repeat resolves of the same host answer
                       from the cache until TTL expiry or a flush,
                       instead of re-paying the NSM round trip. *)
                    (match outcome with
                    | Ok (Some (Wire.Value.Uint ip))
                      when query_class = Query_class.host_address
                           && service = ""
                           && Meta_client.bundle_enabled t.meta_ ->
                        Meta_client.cache_host_addr t.meta_
                          ~context:hns_name.Hns_name.context
                          ~host:hns_name.Hns_name.name ip
                    | _ -> ());
                    outcome)
            in
            (* Observed inside the span so a breach's exemplar can
               capture this query's trace id. *)
            Obs.Slo.observe
              (Obs.Slo.get_or_create "resolve")
              ~ok:(Result.is_ok answer)
              (Sim.Engine.time () -. t0);
            answer)
      in
      (match result with
      | Error e ->
          Obs.Metrics.incr m_resolve_errors;
          Obs.Qlog.note_error (Errors.to_string e)
      | Ok _ -> ());
      result))

let preload t = Meta_client.preload t.meta_

let start_preload_refresher ?interval_ms t =
  Meta_client.start_preload_refresher ?interval_ms t.meta_

let flush_cache t = Cache.flush (cache t)
