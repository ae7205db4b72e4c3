(** Access to the meta-naming database: the HNS side of the modified
    BIND.

    Lookups go through the HNS cache first; misses perform a raw-HRPC
    exchange of native DNS messages with the meta-BIND server, paying
    the generated-stub marshalling price the paper measured (the
    request encode and the response decode each run through the
    {!Wire.Generic_marshal} cost model — this is "the price we paid
    for the RPC-style structure we built for our BIND interface").

    Writes are dynamic-update transactions: replace-rrset semantics,
    one UNSPEC record per key. Preloading transfers the whole meta
    zone (AXFR) and seeds the cache, as BIND secondaries do. *)

type t

(** [mapping_overhead_ms] is HNS library bookkeeping charged once per
    data mapping (both on {!lookup} and on the host-address
    mapping).
    [fallback_servers] are tried in order when the primary meta server
    does not answer — typically BIND secondaries of the meta zone
    ({!Dns.Secondary}); reads fail over, writes go to the primary
    only. [policy] governs the underlying HRPC retries (timeouts and
    jittered backoff); when the cache was created with a staleness
    budget, a failed refresh falls back to the expired entry
    (serve-stale).

    [enable_bundle] (default off) lets {!find_nsm_bundle} issue
    batched meta queries against a bundle-aware server; off, it always
    reports {!Bundle_unavailable} and callers take the per-mapping
    path. [negative_ttl_ms] (default 0 = disabled) caches "no such
    record" answers for that long, so repeated misses on absent names
    fail fast instead of repeating the round trip.

    [replica_set] routes root-zone reads over the meta zone's replica
    tree ({!Dns.Replica_set}) instead of pinning them all to
    [meta_server]; writes still go to the primary. [read_your_writes]
    (default on) pins reads after a write to replicas whose SOA serial
    has caught up to the write's serial, falling back to the primary
    until one has — turn it off to measure the staleness window the
    pinning closes. Referral replies from a partitioned namespace are
    always chased transparently (the root names the partition's
    servers in NS + glue records, primary first) and the cut is cached
    for the NS TTL, so the chase is paid once per TTL; see
    [hns.meta.referral_chases] / [hns.meta.referral_hits].

    With [hand_codec] set, hot record shapes marshal through the
    hand-coded codec ({!Hot_codec}) and charge that model instead of
    [generated_cost]; prefetch-tail HostAddress rows decode zero-copy
    into native cache entries; transfer/delta records absorb at
    [hand_preload_record_ms] (falling back to [preload_record_ms] when
    unset). Cold/unknown shapes always fall back to the generated
    path, preserving interop with heterogeneous peers. *)
val create :
  Transport.Netstack.stack ->
  meta_server:Transport.Address.t ->
  ?fallback_servers:Transport.Address.t list ->
  ?replica_set:Dns.Replica_set.t ->
  ?read_your_writes:bool ->
  cache:Cache.t ->
  ?generated_cost:Wire.Generic_marshal.cost_model ->
  ?hand_codec:Wire.Hotcodec.cost_model ->
  ?hand_preload_record_ms:float ->
  ?preload_record_ms:float ->
  ?mapping_overhead_ms:float ->
  ?enable_bundle:bool ->
  ?negative_ttl_ms:float ->
  ?policy:Rpc.Control.retry_policy ->
  unit ->
  t

val cache : t -> Cache.t

(** This client's own counts: [hns.meta.remote_lookups] (remote
    round trips, i.e. cache misses), [hns.meta.referral_chases] and
    [hns.meta.referral_hits] (partition routing),
    [hns.meta.bundle_prefetched] and [hns.meta.prefetch_hits] (the
    resolve-tail prefetch), and [hns.meta.delta_refreshes],
    [hns.meta.delta_records], [hns.meta.delta_invalidations],
    [hns.meta.full_refreshes] and [hns.meta.notify_kicks] (delta-driven
    refresh). *)
val metrics : t -> Obs.Metrics.scope

val bundle_enabled : t -> bool

(** The configured negative-TTL {e cap} (0 = negative caching off). *)
val negative_ttl_ms : t -> float

(** The TTL a negative entry recorded now would actually get: the meta
    zone's SOA minimum (RFC 2308), observed from transfer payloads and
    from the SOA the server attaches to negative replies, capped by
    {!negative_ttl_ms}. Equal to the cap until an SOA has been seen;
    0 when negative caching is off. *)
val effective_negative_ttl_ms : t -> float

(** [Ok None] when the meta database has no record at the key — either
    from the server or from a cached negative entry. *)
val lookup :
  t -> key:Dns.Name.t -> ty:Wire.Idl.ty -> (Wire.Value.t option, Errors.t) result

(** {1 The batched FindNSM meta query}

    One round trip answering mappings 1–3 of FindNSM at once, served
    by a bundle-aware meta server ({!Meta_bundle}). All real records
    in the reply are decoded (at the generated-stub price) and
    inserted into the cache, so even a partially-useful bundle warms
    the per-mapping path. *)

type bundle_result =
  | Bundle_unavailable
      (** No batched answer — bundle disabled, server too old
          (NXDOMAIN, remembered), already warm, unreachable, or a
          malformed/truncated reply. Callers run the per-mapping
          walk. *)
  | Bundle_resolved of {
      ns : string;
      nsm : string;
      info : Meta_schema.nsm_info;
    }  (** Mappings 1–3 resolved in one exchange. *)
  | Bundle_negative of Errors.t
      (** The server answered definitively that the chain ends early
          (unknown context, no NSM for the class, no binding); the
          failing key is negatively cached. *)

val find_nsm_bundle :
  t -> context:string -> query_class:Query_class.t -> bundle_result

(** {1 Resolve-tail prefetch accounting}

    A bundle-aware server may piggyback its hottest [HostAddress]
    answers on the reply ({!Meta_bundle}'s [prefetch]); those rows are
    seeded pinned under the preload quota and later host-address cache
    hits on them are attributed back, so "how much did the prefetch
    buy" is directly observable: [hns.meta.bundle_prefetched] counts
    rows admitted, [hns.meta.prefetch_hits] the resolves whose trailing
    NSM data round trip a prefetched row eliminated. *)

(** One dynamic-update transaction of raw ops, routed by the first
    op's name: the owning partition's primary when the name is
    strictly below a learned cut, the root primary otherwise. A
    [Not_zone] rejection triggers one referral-learning probe read and
    a single retry against the owner. Prefer {!store} / {!remove} for
    ordinary records; this is for delegation maintenance
    ({!Admin.register_partition}) and other multi-op updates. *)
val transact : t -> Dns.Msg.update_op list -> (unit, Errors.t) result

(** Replace the record at [key]. [ttl_s] defaults to 3600. *)
val store :
  t -> key:Dns.Name.t -> ty:Wire.Idl.ty -> ?ttl_s:int32 -> Wire.Value.t -> (unit, Errors.t) result

val remove : t -> key:Dns.Name.t -> (unit, Errors.t) result

(** Transfer the meta zone (AXFR) and bulk-seed the cache via
    {!Cache.preload}; returns the number of records seeded. Also
    captures the zone's SOA serial and refresh interval, which drive
    {!start_preload_refresher}. *)
val preload : t -> (int, Errors.t) result

(** The meta zone's serial as of the last {!preload} or delta
    refresh, if any. *)
val zone_serial : t -> int32 option

(** {1 Delta-driven refresh}

    Once a {!preload} has established a snapshot at some serial, the
    cache is kept coherent {e incrementally}: an IXFR exchange against
    the primary's change journal replays only what changed since our
    serial — added records are (re)inserted pinned, deleted records
    are invalidated on the spot, and the tracked serial advances. A
    truncated journal degrades to a full reload inside the same
    exchange; a client with no snapshot yet takes the AXFR path.
    [hns.meta.delta_refreshes] counts incremental refreshes applied and
    [hns.meta.delta_records] the changes they replayed;
    [hns.meta.delta_invalidations] the entries deltas deleted;
    [hns.meta.full_refreshes] the AXFR seeds (initial {!preload}s plus
    truncation fallbacks); [hns.meta.notify_kicks] the NOTIFY pushes
    that triggered a refresh. *)

(** [start_notify_listener t] registers a NOTIFY endpoint on an
    allocated UDP port of the client's stack and returns its
    address plus a stop closure. Register the address with the
    primary ({!Dns.Server.register_notify}) and the client refreshes
    the moment the meta zone's serial advances — the
    {!start_preload_refresher} poll loop remains the backstop for
    lost pushes. Stale or duplicate NOTIFYs are acknowledged without
    refreshing. Must be called inside the simulation. *)
val start_notify_listener : t -> Transport.Address.t * (unit -> unit)

(** [start_preload_refresher ?interval_ms t] spawns a background
    process (must be called inside the simulation) that periodically
    probes the primary's SOA serial and refreshes the cache
    (delta-driven, with AXFR fallback) when it has advanced — counted in
    [hns.meta.preload_refreshes]. The interval
    defaults to the zone's SOA refresh value captured by the last
    {!preload} (30 s before any preload). Returns a stop closure;
    call it from within the simulation, and note the loop only exits
    at its next wake-up. *)
val start_preload_refresher : ?interval_ms:float -> t -> unit -> unit

(** {1 Mapping walk log}

    Each data mapping performed is appended to a bounded log
    (newest 64): the mapping's cache key, whether it hit, and its
    virtual-time cost. FindNSM's six mappings show up here one by
    one — the trace behind Figure 2.1. *)

(** Oldest first. *)
val walk_log : t -> (string * bool * float) list

val clear_walk_log : t -> unit

(** {1 Partition routing and read-your-writes}

    See [replica_set] / [read_your_writes] on {!create}. Each
    [hns.meta.referral_chases] learns and caches one partition cut;
    each [hns.meta.referral_hits] is a read routed straight from a
    cached cut, skipping the chase. *)

(** The root replica set this client routes through, if any. *)
val replica_set : t -> Dns.Replica_set.t option

(** Partition cuts currently cached from referrals, with the replica
    set serving each, sorted by cut name. *)
val partitions : t -> (Dns.Name.t * Dns.Replica_set.t) list

(** Cache a host-address mapping on behalf of FindNSM (mapping six). *)
val cache_host_addr :
  t -> context:string -> host:string -> Transport.Address.ip -> unit

(** Consult the cached host-address mapping; charges one mapping's
    overhead and logs the consultation either way. *)
val cached_host_addr :
  t -> context:string -> host:string -> Transport.Address.ip option
