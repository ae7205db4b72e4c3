(** The HNS's specialized cache.

    "We use a specialized caching scheme based on locality of
    reference to query class and name system type to provide
    acceptable performance." Keys are strings built from the mapping
    being cached (context, query class, NSM name, host name);
    invalidation is a time-to-live against the virtual clock, matching
    BIND's own mechanism — "it would not make sense to use a more
    sophisticated scheme because the source of our cached data (BIND)
    also uses this mechanism".

    The cache has two storage modes reproducing the paper's
    marshalling discovery (Table 3.2):

    - {!Marshalled}: entries hold the wire bytes; every hit re-runs
      the stub-compiler-style demarshalling (for real, via
      {!Wire.Generic_marshal}) and charges its calibrated virtual-time
      cost — 11–26 ms per hit depending on record count.
    - {!Demarshalled}: entries hold decoded values; a hit charges only
      the small cache-management cost (0.8–1.2 ms).

    Misses additionally charge a management cost on insert. All
    charges go to the virtual clock; a cache used outside a simulated
    process (engine not running) charges nothing.

    {b Serve-stale degradation.} With a nonzero [staleness_budget_ms],
    expired entries are not evicted immediately: they linger for the
    budget past their expiry. {!find} still treats them as misses —
    freshness is always preferred — but when the refresh that follows
    a miss fails (backend crashed or partitioned), {!find_stale}
    returns the expired value so resolution degrades to slightly-old
    data instead of an error. Each such answer is counted in the
    [hns.cache.stale_served] metric.

    {b Negative caching.} {!insert_negative} records that a lookup
    found {e nothing}, with its own (short) TTL. A later {!find} on
    that key is a {!Negative_hit}: the caller can fail fast without a
    round trip. Negative entries never poison — a positive
    {!insert} at the same key simply overwrites them, they are never
    served stale, and they disappear at TTL expiry. Counted in
    [hns.cache.neg_hits].

    {b Capacity bound.} With [max_entries] set, inserting a new key
    into a full cache first evicts the least-recently-used entry
    (counted in [hns.cache.evictions]). The default is unbounded,
    matching the prototype's "whole meta zone fits in ~2KB" regime;
    the bound matters once AXFR preloading pulls in entire zones.

    {b Preload-aware admission.} Entries seeded by {!preload} are
    {e pinned}: the LRU scan passes over them, so demand churn in a
    bounded cache cannot wash out a zone snapshot that cost a
    transfer. In exchange preloads respect a quota — pinned entries
    may hold at most 3/4 of [max_entries]; overflow rows are skipped
    (counted in [hns.cache.preload_skipped]) rather than inserted
    only to evict each other. *)

type mode = Marshalled | Demarshalled

type t

(** [hit_overhead_ms] is charged on every hit; demarshalled-mode hits
    additionally charge [hit_per_node_ms] per node of the stored value
    (cache management scales slightly with entry size), while
    marshalled-mode hits charge the [generated_cost] of really
    re-demarshalling the entry. With [hand_cost] set, marshalled-mode
    hits on hot record shapes demarshal through the hand codec
    ({!Hot_codec}) and charge its much smaller cost instead; unknown
    shapes still fall back to the generated path. *)
val create :
  mode:mode ->
  ?generated_cost:Wire.Generic_marshal.cost_model ->
  ?hand_cost:Wire.Hotcodec.cost_model ->
  ?hit_overhead_ms:float ->
  ?hit_per_node_ms:float ->
  ?insert_overhead_ms:float ->
  ?default_ttl_ms:float ->
  ?staleness_budget_ms:float ->
  ?max_entries:int ->
  unit ->
  t

val mode : t -> mode

(** The LRU capacity bound, if any. *)
val max_entries : t -> int option

(** How long past expiry an entry remains servable by {!find_stale};
    0 (the default) disables serve-stale entirely. *)
val staleness_budget_ms : t -> float

(** [find t ~key ~ty] returns the cached value, charging the
    mode-dependent hit cost, or [None] (charging nothing — miss costs
    are the remote lookup the caller now performs). Expired entries
    are removed and count as misses. *)
val find : t -> key:string -> ty:Wire.Idl.ty -> Wire.Value.t option

(** Three-way lookup result distinguishing a cached absence from an
    ordinary miss. *)
type outcome = Hit of Wire.Value.t | Negative_hit | Miss

(** Like {!find} but reporting negative entries explicitly. A
    [Negative_hit] charges only [hit_overhead_ms] (nothing to decode)
    and counts in [hns.cache.neg_hits], not as a hit. *)
val find_outcome : t -> key:string -> ty:Wire.Idl.ty -> outcome

(** [peek t ~key] is true when a fresh {e positive} entry is cached
    under [key]. Charges no virtual time and moves no counter — an
    instrumentation-free probe for "would the walk hit?", used to
    decide whether a bundle round trip is worth issuing. *)
val peek : t -> key:string -> bool

(** As {!peek}, but true when a fresh {e negative} entry is cached. *)
val peek_negative : t -> key:string -> bool

(** [find_stale t ~key ~ty] returns an expired entry still within the
    staleness budget, charging the normal hit cost. For use only after
    a backend refresh has failed; the answer is counted in
    [hns.cache.stale_served], not as a hit. [None] when the entry is
    missing, fresh (use {!find}), or past the budget. *)
val find_stale : t -> key:string -> ty:Wire.Idl.ty -> Wire.Value.t option

(** [insert t ~key ~ty ?ttl_ms v] stores [v] (marshalling it when in
    [Marshalled] mode) and charges the insert cost. *)
val insert : t -> key:string -> ty:Wire.Idl.ty -> ?ttl_ms:float -> Wire.Value.t -> unit

(** [insert_negative t ~key ~ttl_ms] records a cached absence. A later
    positive {!insert} at the same key overwrites it (no poisoning). *)
val insert_negative : t -> key:string -> ttl_ms:float -> unit

(** {2 Native host-address entries (zero-copy prefetch tail)}

    A prefetch-tail HostAddress row hand-decoded straight off the wire
    is stored as a bare [int32] — no [Value] tree on insert, none on
    hit. {!find} still serves such entries to legacy readers by
    materialising the [Uint] on access (counted in
    [wire.codec.value_materializations]). *)

(** [insert_addr t ~key ?ttl_ms ip] stores a native address entry. *)
val insert_addr : t -> key:string -> ?ttl_ms:float -> int32 -> unit

(** [find_addr t ~key] serves a fresh address entry natively, charging
    the demarshalled hit cost. Also reads demand-filled
    [Value.Uint] entries without new allocation. [None] means "fall
    through to {!find}" and counts no miss. *)
val find_addr : t -> key:string -> int32 option

(** [preload_addrs t rows] bulk-seeds [(key, ttl_ms, ip)] native
    address rows, pinned under the same admission quota as
    {!preload}. Returns the number inserted. *)
val preload_addrs : t -> (string * float * int32) list -> int

(** [remove t ~key] drops the entry cached under [key] — the
    invalidation path of delta-driven refresh (the record was deleted
    at the source). Returns whether anything was cached. Counted in
    [hns.cache.invalidations]. *)
val remove : t -> key:string -> bool

(** [preload t entries] bulk-inserts [(key, ty, ttl_ms, value)] rows —
    the AXFR seeding and IXFR delta-refresh path — counting them in
    [hns.cache.preloaded]. The rows are {e pinned} (exempt from LRU
    eviction) up to the admission quota; overflow is skipped. Returns
    the number inserted. *)
val preload :
  t -> (string * Wire.Idl.ty * float * Wire.Value.t) list -> int

(** Drops every entry and zeroes this cache's hit, miss, stale-served
    and negative-hit counts (the globals keep theirs). *)
val flush : t -> unit

(** This cache's own counts: [hns.cache.<mode>.hits] and
    [hns.cache.<mode>.misses] for its storage mode, plus
    [hns.cache.stale_served], [hns.cache.neg_hits],
    [hns.cache.evictions] (the LRU bound), [hns.cache.preloaded],
    [hns.cache.preload_skipped] and [hns.cache.invalidations]. *)
val metrics : t -> Obs.Metrics.scope

(** Currently-pinned (preload-sourced) entries. *)
val pinned : t -> int

val size : t -> int

(** Sum of marshalled entry sizes (0 in demarshalled mode) — the
    "about 2KB" the paper preloads. *)
val stored_bytes : t -> int

(** Hit fraction so far; [0.] before any access. *)
val hit_ratio : t -> float
