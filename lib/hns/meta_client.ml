type bundle_support = B_unknown | B_supported | B_unsupported

let m_lookups = Obs.Metrics.counter "hns.meta.lookups"
let m_remote_lookups = Obs.Metrics.counter "hns.meta.remote_lookups"
let m_lookup_ms = Obs.Metrics.histogram "hns.meta.lookup_ms"
let m_bundle_queries = Obs.Metrics.counter "hns.meta.bundle_queries"
let m_bundle_fallbacks = Obs.Metrics.counter "hns.meta.bundle_fallbacks"
let m_preload_refreshes = Obs.Metrics.counter "hns.meta.preload_refreshes"
let m_delta_refreshes = Obs.Metrics.counter "hns.meta.delta_refreshes"
let m_delta_records = Obs.Metrics.counter "hns.meta.delta_records"
let m_delta_invalidations = Obs.Metrics.counter "hns.meta.delta_invalidations"
let m_full_refreshes = Obs.Metrics.counter "hns.meta.full_refreshes"
let m_notify_kicks = Obs.Metrics.counter "hns.meta.notify_kicks"
let m_serial_regressions = Obs.Metrics.counter "hns.meta.serial_regressions"
let m_prefetched = Obs.Metrics.counter "hns.meta.bundle_prefetched"
let m_prefetch_hits = Obs.Metrics.counter "hns.meta.prefetch_hits"
let m_referral_chases = Obs.Metrics.counter "hns.meta.referral_chases"
let m_referral_hits = Obs.Metrics.counter "hns.meta.referral_hits"
let m_routed_reads = Obs.Metrics.counter "hns.meta.routed_reads"

type t = {
  stack : Transport.Netstack.stack;
  meta_server : Transport.Address.t;
  fallback_servers : Transport.Address.t list;
  replica_set : Dns.Replica_set.t option;
      (* read routing over the root zone's replica tree *)
  read_your_writes : bool;
  referrals : Dns.Replica_set.t Dns.Referral.cuts;
      (* learned partition cuts: who serves the subtree under each *)
  mutable write_floors : (Dns.Name.t * int32) list;
      (* per zone origin: the serial our last write landed at *)
  cache_ : Cache.t;
  generated_cost : Wire.Generic_marshal.cost_model;
  hand_codec : Wire.Hotcodec.cost_model option;
      (* when set, hot record shapes marshal through the hand codec
         and charge this model; cold/unknown shapes still fall back to
         the generated path *)
  hand_preload_record_ms : float option;
      (* per-record transfer/delta absorption under the hand codec *)
  preload_record_ms : float;
  mapping_overhead_ms : float;
  enable_bundle : bool;
  negative_ttl_ms : float;
  mutable bundle_support : bundle_support;
  mutable zone_serial : int32 option;
  mutable zone_refresh_s : int32 option;
  mutable soa_neg_ttl_ms : float option; (* zone SOA minimum, observed *)
  mutable walk : (string * bool * float) list; (* newest first *)
  mutable walk_len : int;
  prefetched : (string, unit) Hashtbl.t; (* addr cache keys seeded by prefetch *)
  raw_binding : Hrpc.Binding.t;
  policy : Rpc.Control.retry_policy option;
  lookups : Obs.Metrics.counter; (* remote round trips *)
  referral_chases : Obs.Metrics.counter;
  referral_hits : Obs.Metrics.counter;
  delta_refreshes : Obs.Metrics.counter;
  delta_records : Obs.Metrics.counter;
  delta_invalidations : Obs.Metrics.counter;
  full_refreshes : Obs.Metrics.counter;
  notify_kicks : Obs.Metrics.counter;
  prefetch_seeded : Obs.Metrics.counter;
  prefetch_hits : Obs.Metrics.counter;
}

let create stack ~meta_server ?(fallback_servers = []) ?replica_set
    ?(read_your_writes = true) ~cache
    ?(generated_cost = { Wire.Generic_marshal.per_call_ms = 0.0; per_node_ms = 0.0 })
    ?hand_codec ?hand_preload_record_ms ?(preload_record_ms = 0.0)
    ?(mapping_overhead_ms = 0.0) ?(enable_bundle = false)
    ?(negative_ttl_ms = 0.0) ?policy () =
  {
    stack;
    meta_server;
    fallback_servers;
    replica_set;
    read_your_writes;
    referrals = Dns.Referral.cuts ();
    write_floors = [];
    cache_ = cache;
    generated_cost;
    hand_codec;
    hand_preload_record_ms;
    preload_record_ms;
    mapping_overhead_ms;
    enable_bundle;
    negative_ttl_ms;
    bundle_support = B_unknown;
    zone_serial = None;
    zone_refresh_s = None;
    soa_neg_ttl_ms = None;
    walk = [];
    walk_len = 0;
    prefetched = Hashtbl.create 16;
    raw_binding =
      Hrpc.Binding.make ~suite:Hrpc.Component.raw_udp_suite ~server:meta_server
        ~prog:0 ~vers:0;
    policy;
    lookups = Obs.Metrics.owned m_remote_lookups;
    referral_chases = Obs.Metrics.owned m_referral_chases;
    referral_hits = Obs.Metrics.owned m_referral_hits;
    delta_refreshes = Obs.Metrics.owned m_delta_refreshes;
    delta_records = Obs.Metrics.owned m_delta_records;
    delta_invalidations = Obs.Metrics.owned m_delta_invalidations;
    full_refreshes = Obs.Metrics.owned m_full_refreshes;
    notify_kicks = Obs.Metrics.owned m_notify_kicks;
    prefetch_seeded = Obs.Metrics.owned m_prefetched;
    prefetch_hits = Obs.Metrics.owned m_prefetch_hits;
  }

let cache t = t.cache_
let metrics t =
  Obs.Metrics.scope
    [ t.lookups; t.referral_chases; t.referral_hits; t.delta_refreshes;
      t.delta_records; t.delta_invalidations; t.full_refreshes; t.notify_kicks;
      t.prefetch_seeded; t.prefetch_hits ]
let bundle_enabled t = t.enable_bundle
let negative_ttl_ms t = t.negative_ttl_ms

(* The transport of every exchange with a meta server: HRPC's raw
   call, which pays its costs and counts. *)
let call_raw t server request =
  Hrpc.Client.call_raw t.stack { t.raw_binding with Hrpc.Binding.server } ?policy:t.policy
    request

(* {1 Partition routing}

   The meta namespace may be delegated: the root primary holds NS
   records at context cuts pointing at partition primaries (and their
   replicas, as further NS + glue rows). A read for a key under a
   known cut goes straight to that partition's replica set; an unknown
   cut announces itself as a referral reply, which we chase once and
   cache for the NS TTL. *)

(* The read-your-writes floor for a zone: the serial our last write to
   it landed at, when pinning is on. *)
let floor_for t zone =
  if not t.read_your_writes then None
  else
    List.find_map
      (fun (z, s) -> if Dns.Name.equal z zone then Some s else None)
      t.write_floors

let note_write_floor t zone serial =
  let prev =
    List.find_map
      (fun (z, s) -> if Dns.Name.equal z zone then Some s else None)
      t.write_floors
  in
  let floor =
    match prev with
    | Some s when Int32.compare s serial > 0 -> s
    | _ -> serial
  in
  t.write_floors <-
    (zone, floor)
    :: List.filter (fun (z, _) -> not (Dns.Name.equal z zone)) t.write_floors

(* Where a read for [key] should go: the routed server(s) to try in
   order, plus the replica set consulted (for latency feedback). *)
let read_route t key =
  let via rs ~zone =
    let sel = Dns.Replica_set.select ?min_serial:(floor_for t zone) rs in
    Obs.Metrics.incr m_routed_reads;
    let prim = Dns.Replica_set.primary rs in
    let chain =
      if Transport.Address.equal sel prim then [ sel ] else [ sel; prim ]
    in
    (Some rs, chain)
  in
  match Dns.Referral.covering t.referrals key with
  | Some (cut, rs) ->
      Obs.Metrics.incr t.referral_hits;
      via rs ~zone:cut
  | None -> (
      match t.replica_set with
      | Some rs -> via rs ~zone:Meta_schema.zone_origin
      | None -> (None, t.meta_server :: t.fallback_servers))

(* Cache the partition a referral describes. Glue order is the
   deployment's contract: the partition primary's NS record is
   registered first, so the first glue address is the update target
   and the rest are its replicas. All partition servers answer on the
   meta deployment's common port. *)
let learn_referral t (referral : Dns.Referral.t) reply =
  match Dns.Referral.glue referral reply ~port:t.meta_server.Transport.Address.port with
  | [] -> ()
  | primary :: rest ->
      let replicas = List.filter (fun a -> not (Transport.Address.equal a primary)) rest in
      Dns.Referral.remember t.referrals referral.cut ~ttl_ms:referral.ttl_ms
        (Dns.Replica_set.create t.stack ~zone:referral.cut ~primary ~replicas);
      Obs.Metrics.incr t.referral_chases

(* One raw DNS exchange, paying the generated-stub marshalling price
   on both directions. Reads are routed: through the partition's
   replica set when the key is under a learned cut, through the root
   replica set when one is configured, and to the configured servers
   in Timeout-failover order otherwise. Referral replies are chased
   (and the cut cached) up to a bounded depth. *)
let rec raw_query_routed t ~depth key =
  Obs.Metrics.incr t.lookups;
  (* A remote round trip makes the enclosing query at least a miss. *)
  Obs.Qlog.note_outcome Obs.Qlog.Miss;
  (* Request encode: the generated path's fixed entry cost, or the
     hand codec's when one is configured. *)
  (match t.hand_codec with
  | Some hc -> Sim.Engine.charge hc.Wire.Hotcodec.per_call_ms
  | None -> Sim.Engine.charge t.generated_cost.Wire.Generic_marshal.per_call_ms);
  let rs_opt, servers = read_route t key in
  let feedback server ~ok ~elapsed =
    match rs_opt with
    | Some rs -> Dns.Replica_set.note_result rs server ~ok ~latency_ms:elapsed
    | None -> ()
  in
  let send server request =
    let r = call_raw t server request in
    (match r with
    | Ok reply -> Obs.Qlog.add_bytes (String.length request + String.length reply)
    | Error _ -> ());
    r
  in
  let exchange server =
    if Obs.Qlog.enabled () then Obs.Qlog.note_server (Transport.Address.to_string server);
    let t0 = Sim.Engine.time () in
    match Dns.Exchange.call (send server) (fun id -> Dns.Msg.query ~id key Dns.Rr.T_unspec) with
    | Error (Rpc.Control.Protocol_error m) -> Error (Errors.Meta_error m)
    | Error e ->
        feedback server ~ok:false ~elapsed:(Sim.Engine.time () -. t0);
        Error (Errors.Rpc_error e)
    | Ok reply ->
        feedback server ~ok:true ~elapsed:(Sim.Engine.time () -. t0);
        Ok reply
  in
  let rec go last = function
    | [] -> last
    | server :: rest -> (
        match exchange server with
        | Error (Errors.Rpc_error (Rpc.Control.Timeout _)) as e -> go e rest
        | outcome -> outcome)
  in
  match
    go
      (Error (Errors.Rpc_error (Rpc.Control.Timeout { elapsed_ms = 0.0 })))
      servers
  with
  | Ok reply when depth < 3 -> (
      match Dns.Referral.of_reply reply with
      | Some referral ->
          learn_referral t referral reply;
          raw_query_routed t ~depth:(depth + 1) key
      | None -> Ok reply)
  | outcome -> outcome

let raw_query t key = raw_query_routed t ~depth:0 key

let first_unspec (reply : Dns.Msg.t) =
  List.find_map
    (fun (rr : Dns.Rr.t) ->
      match rr.rdata with Dns.Rr.Unspec bytes -> Some (bytes, rr.ttl) | _ -> None)
    reply.answers

(* HNS library bookkeeping charged once per data mapping: TTL checks,
   key construction, designation logic. *)
let charge_mapping_overhead t = Sim.Engine.charge t.mapping_overhead_ms

(* The walk log keeps the last [walk_cap] mappings. It is trimmed only
   when it reaches twice that, so logging a mapping is amortised O(1). *)
let walk_cap = 64
let newest n walk = List.filteri (fun i _ -> i < n) walk

let log_mapping t key hit cost =
  t.walk <- (key, hit, cost) :: t.walk;
  t.walk_len <- t.walk_len + 1;
  if t.walk_len = 2 * walk_cap then begin
    t.walk <- newest walk_cap t.walk;
    t.walk_len <- walk_cap
  end

let walk_log t = List.rev (newest walk_cap t.walk)

let clear_walk_log t =
  t.walk <- [];
  t.walk_len <- 0

(* Remember the zone SOA's minimum field whenever a reply (or a
   transfer) carries one: RFC 2308 makes it the zone's negative TTL,
   which we adopt — capped by our own [negative_ttl_ms] — instead of
   trusting the client-side constant alone. *)
let observe_soa t (soa : Dns.Rr.soa) =
  t.soa_neg_ttl_ms <- Some (Int32.to_float soa.Dns.Rr.minimum *. 1000.0)

let observe_authority_soa t (reply : Dns.Msg.t) =
  List.iter
    (fun (rr : Dns.Rr.t) ->
      match rr.rdata with Dns.Rr.Soa soa -> observe_soa t soa | _ -> ())
    reply.authority

(* The TTL a negative entry recorded now would get: the zone's SOA
   minimum when one has been observed, never above the configured cap;
   0 when negative caching is off. *)
let effective_negative_ttl_ms t =
  if t.negative_ttl_ms <= 0.0 then 0.0
  else
    match t.soa_neg_ttl_ms with
    | Some soa_ms when soa_ms > 0.0 -> Float.min soa_ms t.negative_ttl_ms
    | _ -> t.negative_ttl_ms

(* Record a definitive "nothing there" so the next miss on this key
   fails fast instead of repeating the round trip. Inert unless the
   client was created with a positive negative TTL. *)
let note_negative t ckey =
  let ttl_ms = effective_negative_ttl_ms t in
  if ttl_ms > 0.0 then Cache.insert_negative t.cache_ ~key:ckey ~ttl_ms

(* Decode one UNSPEC record body, charging the cost of whichever codec
   handled it: the hand codec when one is configured and the shape is
   hot, the generated stubs otherwise (and as the fallback when the
   hand codec rejects the bytes — counted, so heterogeneous peers keep
   working). [None] means malformed under both codecs. *)
let decode_record t ~ty bytes =
  match (t.hand_codec, Hot_codec.decode_hot t.hand_codec ty bytes) with
  | Some hc, Some v ->
      Sim.Engine.charge (Wire.Hotcodec.cost hc ~records:1);
      Some v
  | _ -> (
      match Wire.Xdr.of_string ty bytes with
      | exception _ -> None
      | v ->
          Sim.Engine.charge (Wire.Generic_marshal.cost t.generated_cost v);
          Some v)

let lookup_remote t ~key ~ckey ~ty =
  match raw_query t key with
  | Error _ as e -> e
  | Ok reply -> (
      (* Negative and NODATA replies carry the zone SOA in their
         authority section (RFC 2308); learn the zone's negative TTL
         from it before recording the absence. *)
      observe_authority_soa t reply;
      match reply.rcode with
      | Dns.Msg.Nx_domain ->
          note_negative t ckey;
          Ok None
      | Dns.Msg.No_error -> (
          match first_unspec reply with
          | None ->
              note_negative t ckey;
              Ok None
          | Some (bytes, ttl_s) -> (
              match decode_record t ~ty bytes with
              | None ->
                  Error
                    (Errors.Meta_error
                       (Printf.sprintf "malformed record at %s" (Dns.Name.to_string key)))
              | Some v ->
                  Cache.insert t.cache_ ~key:ckey ~ty ~ttl_ms:(Int32.to_float ttl_s *. 1000.0) v;
                  Ok (Some v)))
      | rc -> Error (Errors.Meta_error (Dns.Msg.rcode_to_string rc)))

let lookup t ~key ~ty =
  let t0 = Sim.Engine.time () in
  Obs.Metrics.incr m_lookups;
  charge_mapping_overhead t;
  let ckey = Meta_schema.cache_key key in
  let finish hit outcome =
    let elapsed = Sim.Engine.time () -. t0 in
    Obs.Metrics.observe m_lookup_ms elapsed;
    Obs.Span.add_attr "hit" (if hit then "true" else "false");
    Obs.Qlog.note_hop ckey elapsed;
    log_mapping t ckey hit elapsed;
    outcome
  in
  match Cache.through t.cache_ ~key:ckey ~ty ~fetch:(fun () -> lookup_remote t ~key ~ckey ~ty) with
  | Cache.Hit v -> finish true (Ok (Some v))
  | Cache.Negative_hit ->
      (* A cached absence: answer "no record" without a round trip. *)
      Obs.Span.add_attr "negative" "true";
      Obs.Qlog.note_outcome Obs.Qlog.Negative;
      finish true (Ok None)
  | Cache.Fetched answer -> finish false (Ok answer)
  | Cache.Stale_hit v ->
      (* Backend unreachable: the expired entry, still within the
         cache's staleness budget, answers. *)
      Obs.Span.add_attr "stale" "true";
      Obs.Qlog.note_outcome Obs.Qlog.Stale;
      finish false (Ok (Some v))
  | Cache.Failed e -> finish false (Error e)

(* {1 The batched FindNSM bundle} *)

type bundle_result =
  | Bundle_unavailable
  | Bundle_resolved of {
      ns : string;
      nsm : string;
      info : Meta_schema.nsm_info;
    }
  | Bundle_negative of Errors.t

(* Decode and cache every real record carried in a bundle reply,
   returning an assoc of cache key -> decoded value so the caller can
   use them without re-consulting the cache. Pays the same
   generated-stub decode price a per-mapping lookup would. *)
(* A piggybacked HostAddress row: decode and seed it under the
   host-address cache key as a {e pinned preload} ([Cache.preload]
   enforces the pinned quota — an over-eager server cannot displace
   the demand-filled entries). Remembered so {!cached_host_addr} can
   attribute later hits to the prefetch. *)
let note_prefetch_seeded t key n =
  if n > 0 then begin
    Hashtbl.replace t.prefetched key ();
    Obs.Metrics.incr t.prefetch_seeded
  end

let seed_prefetch_row t (rr : Dns.Rr.t) ~context ~host v =
  let key = Meta_schema.host_addr_cache_key ~context ~host in
  (* Demarshalled through the generated path: a Value tree was built
     for a prefetch row — exactly what the zero-copy path avoids. *)
  Wire.Hotcodec.count_value_materialization ();
  let n =
    Cache.preload t.cache_
      [ (key, Meta_schema.host_addr_ty, Int32.to_float rr.ttl *. 1000.0, v) ]
  in
  note_prefetch_seeded t key n

(* The zero-copy tail: four wire bytes to an int32 to a native pinned
   cache entry, no Value tree at any point. *)
let seed_prefetch_addr t (rr : Dns.Rr.t) ~context ~host ip =
  let key = Meta_schema.host_addr_cache_key ~context ~host in
  let n =
    Cache.preload_addrs t.cache_
      [ (key, Int32.to_float rr.ttl *. 1000.0, ip) ]
  in
  note_prefetch_seeded t key n

let seed_bundle_answers t (reply : Dns.Msg.t) =
  let addr_rows =
    List.filter_map
      (fun (rr : Dns.Rr.t) ->
        match rr.rdata with
        | Dns.Rr.Unspec bytes -> (
            match Meta_schema.parse_host_addr_key rr.name with
            | Some (context, host) -> Some (rr, context, host, bytes)
            | None -> None)
        | _ -> None)
      reply.answers
  in
  (* The piggybacked HostAddress rows are uniform entries of one
     reply, so they demarshal through a single codec call — the entry
     cost is paid once for the batch, then per row (generated: per
     node), not once per row. *)
  (match t.hand_codec with
  | Some hc ->
      let native =
        List.filter_map
          (fun (rr, context, host, bytes) ->
            match Hot_codec.decode_host_addr bytes with
            | Some ip -> Some (rr, context, host, ip)
            | None ->
                Wire.Hotcodec.count_fallback ();
                None)
          addr_rows
      in
      if native <> [] then
        Sim.Engine.charge (Wire.Hotcodec.cost hc ~records:(List.length native));
      List.iter
        (fun (rr, context, host, ip) ->
          seed_prefetch_addr t rr ~context ~host ip)
        native
  | None ->
      let prefetch_rows =
        List.filter_map
          (fun (rr, context, host, bytes) ->
            match Wire.Xdr.of_string Meta_schema.host_addr_ty bytes with
            | exception _ -> None
            | v -> Some (rr, context, host, v))
          addr_rows
      in
      if prefetch_rows <> [] then
        Sim.Engine.charge
          (Wire.Generic_marshal.cost t.generated_cost
             (Wire.Value.Array
                (List.map (fun (_, _, _, v) -> v) prefetch_rows)));
      List.iter
        (fun (rr, context, host, v) -> seed_prefetch_row t rr ~context ~host v)
        prefetch_rows);
  List.filter_map
    (fun (rr : Dns.Rr.t) ->
      match rr.rdata with
      | Dns.Rr.Unspec bytes -> (
          match Meta_schema.parse_host_addr_key rr.name with
          | Some _ ->
              (* Seeded above, outside the mapping chain the bundle
                 status logic consults. *)
              None
          | None -> (
          match Meta_schema.ty_of_key rr.name with
          | None -> None (* the status marker, handled separately *)
          | Some ty -> (
              match decode_record t ~ty bytes with
              | None -> None
              | Some v ->
                  Cache.insert t.cache_ ~key:(Meta_schema.cache_key rr.name)
                    ~ty
                    ~ttl_ms:(Int32.to_float rr.ttl *. 1000.0)
                    v;
                  Some (Meta_schema.cache_key rr.name, v))))
      | _ -> None)
    reply.answers

let bundle_status_of_reply t (reply : Dns.Msg.t) ~qname =
  List.find_map
    (fun (rr : Dns.Rr.t) ->
      if not (Dns.Name.equal rr.name qname) then None
      else
        match rr.rdata with
        | Dns.Rr.Unspec bytes -> (
            match t.hand_codec with
            | Some _ -> Hot_codec.decode_bundle_status bytes
            | None -> (
                match
                  Wire.Xdr.of_string Meta_schema.bundle_status_ty bytes
                with
                | exception _ -> None
                | v -> Meta_schema.bundle_status_of_value v))
        | _ -> None)
    reply.answers

let find_nsm_bundle t ~context ~query_class =
  if (not t.enable_bundle) || t.bundle_support = B_unsupported then
    Bundle_unavailable
  else
    let ctx_key = Meta_schema.context_key context in
    let ctx_cache_key = Meta_schema.cache_key ctx_key in
    (* When mapping 1 is already warm the per-mapping walk runs on
       cache hits; a bundle round trip would cost more than it saves.
       (Partially-warm states still take the bundle: one round trip
       beats two.) *)
    match Cache.probe t.cache_ ~key:ctx_cache_key with
    | Some Cache.Fresh -> Bundle_unavailable
    | Some Cache.Negative ->
        (* A fresh "no such context" answers the whole FindNSM with no
           traffic; go through find for the usual negative-hit charge
           and accounting. *)
        ignore (Cache.find t.cache_ ~key:ctx_cache_key ~ty:Meta_schema.string_ty);
        Bundle_negative (Errors.Unknown_context context)
    | Some (Cache.Stale | Cache.Dead) | None ->
      Obs.Span.with_span "find_nsm_bundle"
        ~attrs:(fun () -> [ ("context", context); ("query_class", query_class) ])
        (fun () ->
          Obs.Metrics.incr m_bundle_queries;
          (* One mapping's worth of HNS bookkeeping covers the whole
             batched exchange. *)
          charge_mapping_overhead t;
          let t0 = Sim.Engine.time () in
          let qname = Meta_schema.bundle_key ~context ~query_class in
          let finish outcome =
            let elapsed = Sim.Engine.time () -. t0 in
            Obs.Qlog.note_hop (Meta_schema.cache_key qname) elapsed;
            log_mapping t (Meta_schema.cache_key qname) false elapsed;
            outcome
          in
          match raw_query t qname with
          | Error _ ->
              (* Unreachable server: let the per-mapping walk apply its
                 own failover and serve-stale machinery. *)
              Obs.Span.add_attr "outcome" "error";
              finish Bundle_unavailable
          | Ok reply -> (
              match reply.rcode with
              | Dns.Msg.Nx_domain | Dns.Msg.Refused ->
                  (* An old meta server: remember and stop asking. *)
                  t.bundle_support <- B_unsupported;
                  Obs.Metrics.incr m_bundle_fallbacks;
                  Obs.Span.add_attr "outcome" "unsupported";
                  finish Bundle_unavailable
              | Dns.Msg.No_error -> (
                  t.bundle_support <- B_supported;
                  let seeded = seed_bundle_answers t reply in
                  let seeded_value key =
                    List.assoc_opt (Meta_schema.cache_key key) seeded
                  in
                  let ns_of_ctx () =
                    Option.map Wire.Value.get_str (seeded_value ctx_key)
                  in
                  match bundle_status_of_reply t reply ~qname with
                  | None ->
                      (* No status marker (e.g. a truncated UDP reply):
                         whatever records did arrive are cached; walk. *)
                      Obs.Span.add_attr "outcome" "no-marker";
                      finish Bundle_unavailable
                  | Some Meta_schema.B_no_context ->
                      note_negative t ctx_cache_key;
                      Obs.Span.add_attr "outcome" "no-context";
                      finish (Bundle_negative (Errors.Unknown_context context))
                  | Some Meta_schema.B_no_nsm -> (
                      match ns_of_ctx () with
                      | None -> finish Bundle_unavailable
                      | Some ns ->
                          note_negative t
                            (Meta_schema.cache_key
                               (Meta_schema.nsm_name_key ~ns ~query_class));
                          Obs.Span.add_attr "outcome" "no-nsm";
                          finish
                            (Bundle_negative (Errors.No_nsm { ns; query_class }))
                      )
                  | Some Meta_schema.B_no_binding -> (
                      let nsm =
                        match ns_of_ctx () with
                        | None -> None
                        | Some ns ->
                            Option.map Wire.Value.get_str
                              (seeded_value
                                 (Meta_schema.nsm_name_key ~ns ~query_class))
                      in
                      match nsm with
                      | None -> finish Bundle_unavailable
                      | Some nsm ->
                          note_negative t
                            (Meta_schema.cache_key (Meta_schema.nsm_binding_key nsm));
                          Obs.Span.add_attr "outcome" "no-binding";
                          finish (Bundle_negative (Errors.Unknown_nsm nsm)))
                  | Some Meta_schema.B_ok -> (
                      match ns_of_ctx () with
                      | None -> finish Bundle_unavailable
                      | Some ns -> (
                          match
                            Option.map Wire.Value.get_str
                              (seeded_value
                                 (Meta_schema.nsm_name_key ~ns ~query_class))
                          with
                          | None -> finish Bundle_unavailable
                          | Some nsm -> (
                              match
                                seeded_value (Meta_schema.nsm_binding_key nsm)
                              with
                              | None -> finish Bundle_unavailable
                              | Some v ->
                                  let info = Meta_schema.nsm_info_of_value v in
                                  Obs.Span.add_attr "outcome" "ok";
                                  finish (Bundle_resolved { ns; nsm; info })))))
              | _ ->
                  Obs.Span.add_attr "outcome" "error";
                  finish Bundle_unavailable))

let op_key (op : Dns.Msg.update_op) =
  match op with
  | Dns.Msg.Add rr -> rr.Dns.Rr.name
  | Dns.Msg.Delete_rrset (n, _) | Dns.Msg.Delete_rr (n, _) | Dns.Msg.Delete_name n
    ->
      n

(* Where a write for [key] must go: the owning partition's primary
   when the key is strictly below a learned cut, the root primary
   otherwise. Ops AT a cut maintain the delegation itself (NS + glue)
   and belong to the parent. *)
let write_route t key =
  match Dns.Referral.covering t.referrals key with
  | Some (cut, rs)
    when List.length (Dns.Name.labels key) > List.length (Dns.Name.labels cut)
    ->
      (cut, Dns.Replica_set.primary rs)
  | _ -> (Meta_schema.zone_origin, t.meta_server)

let rec transact_routed t ~retried ops =
  let key = match ops with [] -> Meta_schema.zone_origin | op :: _ -> op_key op in
  let zone, server = write_route t key in
  let rejected rc = Error (Errors.Meta_error ("update: " ^ Dns.Msg.rcode_to_string rc)) in
  match Dns.Update.send (call_raw t server) ~zone ops with
  | Ok serial ->
      (* The ack carries the zone's new SOA: the serial this write
         landed at, which pins subsequent routed reads until a replica
         has caught up. *)
      Option.iter (note_write_floor t zone) serial;
      Ok ()
  | Error (Dns.Update.Rpc_error (Rpc.Control.Protocol_error m)) -> Error (Errors.Meta_error m)
  | Error (Dns.Update.Rpc_error e) -> Error (Errors.Rpc_error e)
  | Error Dns.Update.Not_zone when not retried ->
      (* The key is delegated away from where we sent the update and we
         hold no (or a stale) cut for it: a probe read chases the
         referral chain and caches the cut, then the write retries once
         against the owner. *)
      ignore (raw_query t key);
      transact_routed t ~retried:true ops
  | Error Dns.Update.Not_zone -> rejected Dns.Msg.Not_zone
  | Error Dns.Update.Refused -> rejected Dns.Msg.Refused
  | Error (Dns.Update.Server_error rc) -> rejected rc

let transact t ops = transact_routed t ~retried:false ops

let store t ~key ~ty ?(ttl_s = 3600l) v =
  Wire.Idl.check ~what:"Meta_client.store" ty v;
  (* Journal Put/Del deltas carry these bytes; the hand encoder emits
     the identical wire form, so either codec's output replicates to
     peers running the other. *)
  let bytes =
    match t.hand_codec with
    | Some _ -> (
        match Hot_codec.encode_value ty v with
        | Some b -> b
        | None ->
            Wire.Hotcodec.count_fallback ();
            Wire.Xdr.to_string ty v)
    | None -> Wire.Xdr.to_string ty v
  in
  let rr =
    Dns.Rr.make ~ttl:ttl_s key (Dns.Rr.Unspec bytes)
  in
  match transact t [ Dns.Msg.Delete_rrset (key, Dns.Rr.T_unspec); Dns.Msg.Add rr ] with
  | Error _ as e -> e
  | Ok () ->
      (* Keep our own cache coherent immediately; other caches rely on
         TTL expiry, as the paper accepts. A positive insert also
         overwrites any negative entry at this key. *)
      Cache.insert t.cache_ ~key:(Meta_schema.cache_key key) ~ty
        ~ttl_ms:(Int32.to_float ttl_s *. 1000.0)
        v;
      Ok ()

let remove t ~key = transact t [ Dns.Msg.Delete_name key ]

(* Adopt a zone SOA as our snapshot position: serial, refresh interval
   (poll backstop cadence) and negative TTL all come from it. *)
let adopt_soa t (soa : Dns.Rr.soa) =
  t.zone_serial <- Some soa.Dns.Rr.serial;
  t.zone_refresh_s <- Some soa.Dns.Rr.refresh;
  observe_soa t soa

(* Decode one transferred UNSPEC record into a preload row, paying the
   per-record absorption charge of whichever codec demarshals it: most
   of the 19.8 ms generated-path cost is stub demarshal plus checks,
   so a record the hand codec handles absorbs at the (much smaller)
   hand rate.  This is the AXFR preload path and, via [apply_change],
   the IXFR delta path. *)
let preload_row t (rr : Dns.Rr.t) =
  match rr.rdata with
  | Dns.Rr.Unspec bytes -> (
      match Meta_schema.ty_of_key rr.name with
      | None -> None
      | Some ty ->
          let decoded =
            match Hot_codec.decode_hot t.hand_codec ty bytes with
            | Some v ->
                Sim.Engine.charge (Option.value t.hand_preload_record_ms ~default:t.preload_record_ms);
                Some v
            | None -> (
                match Wire.Xdr.of_string ty bytes with
                | exception _ -> None
                | v ->
                    Sim.Engine.charge t.preload_record_ms;
                    Some v)
          in
          Option.map
            (fun v -> (Meta_schema.cache_key rr.name, ty, Int32.to_float rr.ttl *. 1000.0, v))
            decoded)
  | _ -> None

(* Seed the cache from a full transfer payload (SOA first). *)
let adopt_transfer t records =
  List.iter
    (fun (rr : Dns.Rr.t) ->
      match rr.rdata with Dns.Rr.Soa soa -> adopt_soa t soa | _ -> ())
    records;
  let n = Cache.preload t.cache_ (List.filter_map (preload_row t) records) in
  Obs.Metrics.incr t.full_refreshes;
  n

let preload t =
  match
    Dns.Axfr.fetch t.stack ~server:t.meta_server ~zone:Meta_schema.zone_origin
  with
  | Error e ->
      Error (Errors.Meta_error (Format.asprintf "preload: %a" Dns.Axfr.pp_error e))
  | Ok records -> Ok (adopt_transfer t records)

(* {1 Delta-driven refresh} *)

type refresh =
  | Unchanged  (** our serial is current; nothing moved *)
  | Applied_deltas of int  (** n journal changes replayed into the cache *)
  | Full_reload of int
      (** AXFR (re)seed — no snapshot yet, or journal truncated *)

(* Replay one journal change into the cache: an added record is
   (re)inserted pinned, exactly as a preload row; a deleted record
   invalidates whatever we held under its key. *)
let apply_change t (change : Dns.Journal.change) =
  match change with
  | Dns.Journal.Del rr ->
      ignore (Cache.remove t.cache_ ~key:(Meta_schema.cache_key rr.Dns.Rr.name));
      Obs.Metrics.incr t.delta_invalidations
  | Dns.Journal.Put rr -> (
      match preload_row t rr with
      | None -> () (* not a meta record (or undecodable): nothing cached *)
      | Some row -> ignore (Cache.preload t.cache_ [ row ]))

let refresh t =
  match t.zone_serial with
  | None -> (
      (* No snapshot yet: delta refresh has no base, take the AXFR. *)
      match preload t with
      | Error _ as e -> e
      | Ok n -> Ok (Full_reload n))
  | Some serial -> (
      match
        Dns.Ixfr.fetch t.stack ~server:t.meta_server
          ~zone:Meta_schema.zone_origin ~serial
      with
      | Error e ->
          Error
            (Errors.Meta_error
               (Format.asprintf "refresh: %a" Dns.Axfr.pp_error e))
      | Ok (Dns.Ixfr.Unchanged soa) ->
          adopt_soa t soa;
          Ok Unchanged
      | Ok (Dns.Ixfr.Deltas (soa, changes)) ->
          List.iter (apply_change t) changes;
          adopt_soa t soa;
          Obs.Metrics.incr t.delta_refreshes;
          Obs.Metrics.add t.delta_records (List.length changes);
          Ok (Applied_deltas (List.length changes))
      | Ok (Dns.Ixfr.Full records) ->
          (* Journal truncated past our serial: the server sent the
             whole zone in the same connection. *)
          Ok (Full_reload (adopt_transfer t records)))

let zone_serial t = t.zone_serial

(* Probe the primary's serial with a plain SOA query — control-plane
   traffic, not counted as a meta lookup. *)
let primary_serial t = Dns.Exchange.soa_serial (call_raw t t.meta_server) Meta_schema.zone_origin

let start_preload_refresher ?interval_ms t =
  let running = ref true in
  let interval () =
    match interval_ms with
    | Some ms -> ms
    | None -> (
        (* The zone's own SOA refresh interval, as a BIND secondary
           would use; 30 s when no preload has captured one yet. *)
        match t.zone_refresh_s with
        | Some r -> Int32.to_float r *. 1000.0
        | None -> 30_000.0)
  in
  Sim.Engine.spawn_child ~name:"hns-preload-refresh" (fun () ->
      while !running do
        Sim.Engine.sleep (interval ());
        if !running then
          match primary_serial t with
          | None -> () (* primary unreachable: keep the current cache *)
          | Some serial ->
              let changed =
                match t.zone_serial with
                | Some s ->
                    (* A serial behind ours means the primary restarted
                       from an older durable image: our cache reflects
                       updates it lost, so resync (the IXFR ask from
                       our unbridgeable serial falls back to a full
                       reload). *)
                    if Int32.compare serial s < 0 then
                      Obs.Metrics.incr m_serial_regressions;
                    not (Int32.equal s serial)
                | None -> true
              in
              if changed then (
                match refresh t with
                | Ok _ -> Obs.Metrics.incr m_preload_refreshes
                | Error _ -> ())
      done);
  fun () -> running := false

(* {1 NOTIFY subscription} *)

let start_notify_listener t =
  Dns.Server.notify_listener t.stack ~name:"hns-notify" ~zone:Meta_schema.zone_origin
    (fun pushed ->
      (* Refresh only when the pushed serial is actually ahead of our
         snapshot (or carries no serial at all); NOTIFY is best-effort
         and may arrive duplicated or late. *)
      let kick () =
        Obs.Metrics.incr t.notify_kicks;
        Sim.Engine.spawn_child ~name:"hns-notify-refresh" (fun () ->
            match refresh t with
            | Ok (Applied_deltas _ | Full_reload _) -> Obs.Metrics.incr m_preload_refreshes
            | Ok Unchanged | Error _ -> ())
      in
      match (pushed, t.zone_serial) with
      | Some pushed, Some held when Int32.compare pushed held > 0 ->
          (* Ahead: ordinary update push. *)
          kick ()
      | Some pushed, Some held when Int32.compare pushed held < 0 ->
          (* Behind: usually just a late or duplicated NOTIFY, but it
             can also mean the primary restarted from an older durable
             image and our cache holds state it lost. Confirm with a
             direct SOA probe (off the handler fiber — the probe is an
             RPC) before counting a regression and resyncing. *)
          Sim.Engine.spawn_child ~name:"hns-notify-regress" (fun () ->
              match (primary_serial t, t.zone_serial) with
              | Some live, Some held when Int32.compare live held < 0 ->
                  Obs.Metrics.incr m_serial_regressions;
                  Obs.Metrics.incr t.notify_kicks;
                  (match refresh t with
                  | Ok (Applied_deltas _ | Full_reload _) -> Obs.Metrics.incr m_preload_refreshes
                  | Ok Unchanged | Error _ -> ())
              | _ -> () (* stale notify; primary is fine *))
      | Some _, Some _ -> () (* duplicate of what we hold *)
      | _ -> kick ())

let replica_set t = t.replica_set

let partitions t = Dns.Referral.learned t.referrals

let cache_host_addr t ~context ~host ip =
  let key = Meta_schema.host_addr_cache_key ~context ~host in
  match t.hand_codec with
  | Some _ ->
      (* Demand fill stays native too: no Value on the way in. *)
      Cache.insert_addr t.cache_ ~key ip
  | None ->
      Cache.insert t.cache_ ~key ~ty:Meta_schema.host_addr_ty
        (Wire.Value.Uint ip)

let cached_host_addr t ~context ~host =
  let key = Meta_schema.host_addr_cache_key ~context ~host in
  let t0 = Sim.Engine.time () in
  charge_mapping_overhead t;
  let hit ip =
    if Hashtbl.mem t.prefetched key then Obs.Metrics.incr t.prefetch_hits;
    log_mapping t key true (Sim.Engine.time () -. t0);
    Some ip
  in
  (* Native entries (and demand-filled Uint values) serve without
     materialising a tree; anything else takes the compat path. *)
  match Cache.find_addr t.cache_ ~key with
  | Some ip -> hit ip
  | None -> (
      match Cache.find t.cache_ ~key ~ty:Meta_schema.host_addr_ty with
      | Some (Wire.Value.Uint ip) -> hit ip
      | Some _ | None ->
          log_mapping t key false (Sim.Engine.time () -. t0);
          None)
