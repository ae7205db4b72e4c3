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

    {b Reads.} Four entry points, all decided by one classifier
    ({!state}). {!through} is the read-through every cached mapping
    uses: a fresh hit, else the caller's fetch, else an expired answer
    inside the staleness budget (RFC 8767's serve-stale). {!find} is
    the same read without a fetch, {!probe} charges nothing, and
    {!find_addr} serves native host-address entries.

    {b Serve-stale degradation.} With a nonzero [staleness_budget_ms],
    an expired positive entry lingers for the budget past its expiry.
    A read still misses on it — freshness is always preferred — but
    when the fetch that follows fails (backend crashed or
    partitioned), {!through} serves the expired value instead of an
    error, counted in [hns.cache.stale_served].

    {b Negative caching.} {!insert_negative} records that a lookup
    found {e nothing}, with its own (short) TTL; a later read of that
    key is a negative hit (counted in [hns.cache.neg_hits]) and fails
    fast. Negative entries never poison — a positive {!insert}
    overwrites them, they are never served stale (RFC 2308), and they
    die at TTL expiry.

    {b Capacity bound.} With [max_entries] set, inserting a new key
    into a full cache first evicts one entry (counted in
    [hns.cache.evictions]): the least recently used dead entry, pinned
    or not; else the least recently used unpinned entry; else the
    least recently used of all. The default is unbounded, matching the
    prototype's "whole meta zone fits in ~2KB" regime; the bound
    matters once AXFR preloading pulls in entire zones.

    {b Preload-aware admission.} Entries seeded by {!preload} are
    {e pinned}: eviction passes over live pinned entries, so demand
    churn in a bounded cache cannot wash out a zone snapshot that cost
    a transfer. In exchange preloads respect a quota — pinned entries
    may hold at most 3/4 of [max_entries]. The first row of a bulk load
    that meets a full quota first drops the dead pinned entries; a row
    still refused is skipped (counted in [hns.cache.preload_skipped])
    and takes any older value at its key with it.

    {b Invariants}, checked with a reference model
    ([test/cache_model.ml]) over generated operation sequences: no
    entry is served fresh past its TTL; a stale answer comes only after
    a failed fetch, inside the budget; a negative entry is never served
    stale; pinned entries never exceed the quota. The model found three
    admission faults, now fixed: a full cache evicted a live entry while
    a dead one stayed; dead pinned entries kept their quota share; a row
    the quota skipped left the older value at its key, served as fresh
    for that value's whole TTL. *)

type mode = Marshalled | Demarshalled

type t

(** [hit_overhead_ms] is charged on every hit; demarshalled-mode hits
    additionally charge [hit_per_node_ms] per node of the stored value
    (cache management scales slightly with entry size), while
    marshalled-mode hits charge the [generated_cost] of really
    re-demarshalling the entry. With [hand_cost] set, marshalled-mode
    hits on hot record shapes demarshal through the hand codec
    ({!Hot_codec}) and charge its much smaller cost instead; unknown
    shapes still fall back to the generated path. An insert that names
    no TTL keeps its entry for an hour. *)
val create :
  mode:mode ->
  ?generated_cost:Wire.Generic_marshal.cost_model ->
  ?hand_cost:Wire.Hotcodec.cost_model ->
  ?hit_overhead_ms:float ->
  ?hit_per_node_ms:float ->
  ?insert_overhead_ms:float ->
  ?staleness_budget_ms:float ->
  ?max_entries:int ->
  unit ->
  t

(** What the entry under a key is at the current virtual time: a
    fresh positive entry, a fresh negative one, a positive entry past
    its TTL but inside the staleness budget, or one past both (an
    expired negative entry is dead at once). *)
type state = Fresh | Negative | Stale | Dead

(** [probe t ~key] is the state of the entry under [key], [None] when
    nothing is cached. Charges no virtual time and moves no counter —
    an instrumentation-free probe for "would the walk hit?". *)
val probe : t -> key:string -> state option

(** The answer of a read-through. *)
type ('a, 'e) read =
  | Hit of Wire.Value.t  (** a fresh entry, decoded and charged *)
  | Negative_hit  (** a fresh cached absence; the fetch did not run *)
  | Fetched of 'a  (** a miss; the fetch answered *)
  | Stale_hit of Wire.Value.t
      (** the fetch failed; an expired entry inside the budget answered *)
  | Failed of 'e  (** the fetch failed and nothing could answer *)

(** [through t ~key ~ty ~fetch] answers a fresh hit (charging the
    mode-dependent hit cost) or a fresh negative (charging only
    [hit_overhead_ms]) without calling [fetch]. Otherwise it counts a
    miss, drops a dead entry and calls [fetch], which inserts what it
    finds. When [fetch] fails, an entry under [key] then inside the
    staleness budget is decoded, charged and served. *)
val through :
  t -> key:string -> ty:Wire.Idl.ty -> fetch:(unit -> ('a, 'e) result) -> ('a, 'e) read

(** [find t ~key ~ty] is {!through} without a fetch: the value of a
    fresh entry, or [None] for a miss or a negative hit (charged and
    counted as such). *)
val find : t -> key:string -> ty:Wire.Idl.ty -> Wire.Value.t option

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

(** [insert_addr t ~key ip] stores a native address entry for an
    hour. *)
val insert_addr : t -> key:string -> int32 -> unit

(** [find_addr t ~key] serves a fresh address entry natively, charging
    the demarshalled hit cost. Also reads demand-filled
    [Value.Uint] entries without new allocation. A hit is counted and
    timed in [hns.cache.<mode>.hit_ms] like any other; [None] means
    "fall through to {!find}" and counts no miss. *)
val find_addr : t -> key:string -> int32 option

(** [preload_addrs t rows] bulk-seeds [(key, ttl_ms, ip)] native
    address rows, pinned under the same admission as {!preload}.
    Returns the number inserted. *)
val preload_addrs : t -> (string * float * int32) list -> int

(** [remove t ~key] drops the entry cached under [key] — the
    invalidation path of delta-driven refresh (the record was deleted
    at the source). Returns whether anything was cached. Counted in
    [hns.cache.invalidations]. *)
val remove : t -> key:string -> bool

(** [preload t entries] bulk-inserts [(key, ty, ttl_ms, value)] rows —
    the AXFR seeding and IXFR delta-refresh path — counting them in
    [hns.cache.preloaded]. The rows are {e pinned} (exempt from LRU
    eviction while live) up to the admission quota; overflow is
    skipped. Returns the number inserted. *)
val preload :
  t -> (string * Wire.Idl.ty * float * Wire.Value.t) list -> int

(** Drops every entry and zeroes this cache's hit, miss, stale-served
    and negative-hit counts (the globals keep theirs). *)
val flush : t -> unit

(** This cache's own counts: [hns.cache.<mode>.hits] and
    [hns.cache.<mode>.misses] for its storage mode, plus
    [hns.cache.stale_served], [hns.cache.neg_hits],
    [hns.cache.evictions] (the capacity bound), [hns.cache.preloaded],
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
