type resolved = { ns_name : string; nsm_name : string; binding : Hrpc.Binding.t }

type t = {
  meta_ : Meta_client.t;
  linked_hostaddr : (string, Nsm_intf.impl) Hashtbl.t;
  (* Singleflight table: concurrent FindNSMs for the same (context,
     query class) share one in-flight lookup instead of stampeding the
     meta server. Keyed within this HNS instance only. *)
  inflight :
    (string, (resolved, Errors.t) result Sim.Engine.Ivar.ivar * Obs.Span.id)
    Hashtbl.t;
      (* ivar plus the leader's trace id, so coalesced followers can
         cross-reference the trace that did the real work *)
}

let m_calls = Obs.Metrics.counter "hns.find_nsm.calls"
let m_errors = Obs.Metrics.counter "hns.find_nsm.errors"
let m_ms = Obs.Metrics.histogram "hns.find_nsm.ms"
let m_failovers = Obs.Metrics.counter "hns.find_nsm.failovers"
let m_coalesced = Obs.Metrics.counter "hns.find_nsm.coalesced"

let note_failover () = Obs.Metrics.incr m_failovers

let create ~meta () =
  { meta_ = meta; linked_hostaddr = Hashtbl.create 8; inflight = Hashtbl.create 4 }

let meta t = t.meta_

let link_hostaddr_nsm t ~name impl =
  Meta_schema.validate_simple_name ~what:"Find_nsm.link_hostaddr_nsm" name;
  Hashtbl.replace t.linked_hostaddr name impl

(* Mapping 1 (and 4): context -> name-service name. *)
let context_to_ns t context =
  Obs.Span.with_span "ctx_to_ns" ~attrs:(fun () -> [ ("context", context) ]) (fun () ->
      match
        Meta_client.lookup t.meta_ ~key:(Meta_schema.context_key context)
          ~ty:Meta_schema.string_ty
      with
      | Error _ as e -> e
      | Ok None -> Error (Errors.Unknown_context context)
      | Ok (Some v) ->
          let ns = Wire.Value.get_str v in
          Obs.Span.add_attr "ns" ns;
          Ok ns)

(* Mapping 2 (and 5): (ns, query class) -> NSM name. *)
let ns_to_nsm t ~ns ~query_class =
  Obs.Span.with_span "ns_to_nsm"
    ~attrs:(fun () -> [ ("ns", ns); ("query_class", query_class) ])
    (fun () ->
      match
        Meta_client.lookup t.meta_
          ~key:(Meta_schema.nsm_name_key ~ns ~query_class)
          ~ty:Meta_schema.string_ty
      with
      | Error _ as e -> e
      | Ok None -> Error (Errors.No_nsm { ns; query_class })
      | Ok (Some v) ->
          let nsm = Wire.Value.get_str v in
          Obs.Span.add_attr "nsm" nsm;
          Ok nsm)

(* Mapping 3: NSM name -> binding information (with a host name). *)
let nsm_to_info t nsm_name =
  Obs.Span.with_span "nsm_to_binding" ~attrs:(fun () -> [ ("nsm", nsm_name) ]) (fun () ->
      match
        Meta_client.lookup t.meta_
          ~key:(Meta_schema.nsm_binding_key nsm_name)
          ~ty:Meta_schema.nsm_info_ty
      with
      | Error _ as e -> e
      | Ok None -> Error (Errors.Unknown_nsm nsm_name)
      | Ok (Some v) -> Ok (Meta_schema.nsm_info_of_value v))

(* Mappings 4-6: host name in a context -> network address. All three
   mappings are always consulted (cheaply, as cache hits on the warm
   path): the paper counts six data mappings per FindNSM regardless of
   cache state. *)
let resolve_host t ~context ~host =
  Obs.Span.with_span "resolve_host"
    ~attrs:(fun () -> [ ("context", context); ("host", host) ])
    (fun () ->
      match context_to_ns t context with
      | Error _ as e -> e
      | Ok ns -> (
          match ns_to_nsm t ~ns ~query_class:Query_class.host_address with
          | Error _ as e -> e
          | Ok hostaddr_nsm ->
              Obs.Span.with_span "host_to_addr" ~attrs:(fun () -> [ ("host", host) ]) (fun () ->
                  (* mapping six's HNS overhead is charged inside
                     [cached_host_addr] so the walk log accounts it *)
                  match Meta_client.cached_host_addr t.meta_ ~context ~host with
                  | Some ip -> Ok ip
                  | None -> (
                      match Hashtbl.find_opt t.linked_hostaddr hostaddr_nsm with
                      | None ->
                          Error
                            (Errors.Meta_error
                               (Printf.sprintf
                                  "host-address NSM %S is not linked with this HNS \
                                   instance"
                                  hostaddr_nsm))
                      | Some impl -> (
                          let hns_name = Hns_name.make ~context ~name:host in
                          match Nsm_intf.call_linked impl ~service:"" ~hns_name with
                          | Error _ as e -> e
                          | Ok None -> Error (Errors.Name_not_found hns_name)
                          | Ok (Some (Wire.Value.Uint ip)) ->
                              Meta_client.cache_host_addr t.meta_ ~context ~host ip;
                              Ok ip
                          | Ok (Some v) ->
                              Error
                                (Errors.Nsm_error
                                   ("host-address NSM returned "
                                  ^ Wire.Value.to_string v)))))))

(* Mapping 6 onward for a known binding record: resolve the host and
   assemble the callable binding. *)
let finish_resolution t ~ns_name ~nsm_name (info : Meta_schema.nsm_info) =
  match
    resolve_host t ~context:info.Meta_schema.nsm_host_context
      ~host:info.Meta_schema.nsm_host
  with
  | Error _ as e -> e
  | Ok ip ->
      let binding =
        Hrpc.Binding.make ~suite:info.Meta_schema.nsm_suite
          ~server:(Transport.Address.make ip info.Meta_schema.nsm_port)
          ~prog:info.Meta_schema.nsm_prog
          ~vers:info.Meta_schema.nsm_vers
      in
      Ok { ns_name; nsm_name; binding }

(* Mappings 3-6 for one named NSM: binding info, then its host's
   address, combined into a callable binding. *)
let resolved_of_nsm t ~ns_name nsm_name =
  match nsm_to_info t nsm_name with
  | Error _ as e -> e
  | Ok info -> finish_resolution t ~ns_name ~nsm_name info

(* One full FindNSM. The batched meta query answers mappings 1-3 in a
   single round trip when available; otherwise (bundle disabled, old
   server, already warm) the per-mapping walk runs as before. Either
   way mappings 4-6 resolve the NSM's host — on the bundle path those
   run against the records the bundle just cached. *)
let do_find t ~context ~query_class =
  Obs.Span.with_span "find_nsm"
    ~attrs:(fun () -> [ ("context", context); ("query_class", query_class) ])
    (fun () ->
      match Meta_client.find_nsm_bundle t.meta_ ~context ~query_class with
      | Meta_client.Bundle_negative e -> Error e
      | Meta_client.Bundle_resolved { ns; nsm; info } ->
          Obs.Span.add_attr "bundle" "true";
          finish_resolution t ~ns_name:ns ~nsm_name:nsm info
      | Meta_client.Bundle_unavailable -> (
          match context_to_ns t context with
          | Error _ as e -> e
          | Ok ns_name -> (
              match ns_to_nsm t ~ns:ns_name ~query_class with
              | Error _ as e -> e
              | Ok nsm_name -> resolved_of_nsm t ~ns_name nsm_name)))

let coalesce_key ~context ~query_class = context ^ "\x00" ^ query_class

let find t ~context ~query_class =
  Obs.Metrics.incr m_calls;
  Obs.Metrics.time m_ms (fun () ->
      let key = coalesce_key ~context ~query_class in
      let result =
        match Hashtbl.find_opt t.inflight key with
        | Some (iv, leader_trace) ->
            (* An identical FindNSM is already in flight: wait for its
               answer instead of repeating the lookups. The follower's
               flight record links the leader's trace — the tree that
               shows where the shared wait actually went. *)
            Obs.Metrics.incr m_coalesced;
            Obs.Qlog.note_link leader_trace;
            Obs.Span.with_span "find_nsm_coalesced"
              ~attrs:(fun () ->
                [
                  ("context", context);
                  ("query_class", query_class);
                  ("leader_trace", Printf.sprintf "%08x" leader_trace);
                ])
              (fun () -> Sim.Engine.Ivar.read iv)
        | None ->
            let iv = Sim.Engine.Ivar.create () in
            Hashtbl.replace t.inflight key (iv, Obs.Span.current_trace ());
            Fun.protect
              ~finally:(fun () ->
                (* Entry removed before we return: sequential callers
                   never observe coalescing. The backstop fill only
                   matters if do_find raised. *)
                Hashtbl.remove t.inflight key;
                ignore
                  (Sim.Engine.Ivar.fill_if_empty iv
                     (Error (Errors.Meta_error "coalesced FindNSM leader failed"))))
              (fun () ->
                let r = do_find t ~context ~query_class in
                Sim.Engine.Ivar.fill iv r;
                r)
      in
      (match result with Error _ -> Obs.Metrics.incr m_errors | Ok _ -> ());
      result)

(* The registered alternates for (ns, query class); [] when the meta
   database has no record or is unreachable — failover is best-effort
   and must not add failure modes of its own. *)
let alternates t ~ns ~query_class =
  match
    Meta_client.lookup t.meta_
      ~key:(Meta_schema.nsm_alternates_key ~ns ~query_class)
      ~ty:Meta_schema.nsm_alternates_ty
  with
  | Error _ | Ok None -> []
  | Ok (Some v) -> (
      match v with
      | Wire.Value.Array items ->
          List.filter_map
            (fun item ->
              match item with Wire.Value.Str s -> Some s | _ -> None)
            items
      | _ -> [])

let failover_candidates t resolved ~query_class =
  alternates t ~ns:resolved.ns_name ~query_class
  |> List.filter (fun nsm -> nsm <> resolved.nsm_name)
  |> List.filter_map (fun nsm_name ->
         match resolved_of_nsm t ~ns_name:resolved.ns_name nsm_name with
         | Error _ -> None
         | Ok r -> Some r)
