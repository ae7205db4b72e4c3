(** The HNS itself: "a collection of library routines" that any
    process can link — a client program, an agent process, or a
    dedicated server. One [t] owns a cache, a meta-naming client, and
    the FindNSM machinery; where you instantiate it is the colocation
    choice ({!Import} exercises the five arrangements of Table 3.1). *)

type t

(** [rpc_policy] governs retries (escalating timeouts, jittered
    backoff) for every HRPC exchange this instance makes — meta-BIND
    queries and NSM calls alike. [enable_bundle] turns on the batched
    FindNSM meta query (requires a bundle-aware meta server;
    {!Meta_bundle}); [negative_ttl_ms] turns on negative caching of
    "no such record" meta answers. Both default off. [hand_codec]
    switches the hot record shapes (bundle markers, prefetch-tail
    addresses, journal deltas) onto the hand-marshalled codec at the
    given cost model, with [hand_preload_record_ms] as the matching
    zone-transfer per-record cost; see {!Meta_client.create}.
    [replica_set] routes meta reads over replicas with
    read-your-writes on. *)
val create :
  Transport.Netstack.stack ->
  meta_server:Transport.Address.t ->
  ?fallback_servers:Transport.Address.t list ->
  ?replica_set:Dns.Replica_set.t ->
  ?cache:Cache.t ->
  ?generated_cost:Wire.Generic_marshal.cost_model ->
  ?hand_codec:Wire.Hotcodec.cost_model ->
  ?hand_preload_record_ms:float ->
  ?preload_record_ms:float ->
  ?mapping_overhead_ms:float ->
  ?enable_bundle:bool ->
  ?negative_ttl_ms:float ->
  ?rpc_policy:Rpc.Control.retry_policy ->
  unit ->
  t

val stack : t -> Transport.Netstack.stack
val meta : t -> Meta_client.t
val finder : t -> Find_nsm.t
val cache : t -> Cache.t

(** Link a host-address NSM instance with this HNS (required before
    FindNSM can complete bindings for hosts named in that NSM's name
    service). *)
val link_hostaddr_nsm : t -> name:string -> Nsm_intf.impl -> unit

(** The primary HNS call. *)
val find_nsm :
  t -> context:string -> query_class:Query_class.t -> (Find_nsm.resolved, Errors.t) result

(** Full client query: FindNSM, then call the designated NSM remotely.
    [Ok None] when the underlying name service has no such name. When
    the designated NSM is unreachable (timeout/refused), the call
    fails over across the alternates registered for the (name service,
    query class) pair before reporting the primary's error. *)
val resolve :
  t ->
  query_class:Query_class.t ->
  payload_ty:Wire.Idl.ty ->
  ?service:string ->
  Hns_name.t ->
  (Wire.Value.t option, Errors.t) result

(** Preload the cache with the meta zone (BIND zone transfer); returns
    the number of mappings seeded. *)
val preload : t -> (int, Errors.t) result

(** Keep a preloaded cache fresh: spawn a background process (call
    from inside the simulation) that re-preloads whenever the meta
    zone's SOA serial advances, checking on the zone's refresh
    interval (or [interval_ms]). Returns a stop closure; invoke it
    within the simulation. See
    {!Meta_client.start_preload_refresher}. *)
val start_preload_refresher : ?interval_ms:float -> t -> unit -> unit

val flush_cache : t -> unit
