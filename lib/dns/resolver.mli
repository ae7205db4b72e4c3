(** Stub resolver with a TTL cache.

    Queries go to the configured servers in order (raw request/response
    over UDP, as BIND clients did) until one answers. Positive answers
    are cached against the virtual clock for the minimum TTL of the
    returned records — the same time-to-live invalidation the paper's
    HNS cache adopts "because the source of our cached data (BIND) also
    uses this mechanism". *)

type error =
  | Nxdomain
  | No_data          (** name exists, no records of that type *)
  | Server_error of Msg.rcode
  | Rpc_error of Rpc.Control.error

val pp_error : Format.formatter -> error -> unit

type t

val create :
  Transport.Netstack.stack ->
  servers:Transport.Address.t list ->
  ?enable_cache:bool ->
  ?max_ttl_ms:float ->
  ?negative_ttl_ms:float ->
  unit ->
  t

(** [query t name rtype] resolves, consulting the cache first. *)
val query : t -> Name.t -> Rr.rtype -> (Rr.t list, error) result

(** Iterative resolution: treat the configured servers as the roots
    and follow zone-cut referrals (using glue addresses when present,
    resolving nameserver names from the roots otherwise) until an
    authoritative answer arrives. Results are cached like any other.
    Fails with [Server_error Refused] on referral loops. *)
val query_iterative : t -> Name.t -> Rr.rtype -> (Rr.t list, error) result

(** Bypass the cache (still stores the fresh result). *)
val query_uncached : t -> Name.t -> Rr.rtype -> (Rr.t list, error) result

(** Convenience: first A record. *)
val lookup_a : t -> Name.t -> (Transport.Address.ip, error) result

(** Insert records directly (used by zone-transfer preloading).
    TTL semantics match a normal answer. *)
val seed : t -> Name.t -> Rr.rtype -> Rr.t list -> unit

val flush : t -> unit
val cache_hits : t -> int
val cache_misses : t -> int

(** Hits answered from the negative cache (name known absent). When
    [negative_ttl_ms] is 0 (the default, as in 1987 BIND) there are
    none; set it to enable RFC 2308-style negative caching. *)
val negative_hits : t -> int

(** This resolver's own [dns.resolver.referral_hits]: iterative
    resolves that skipped the root walk because the zone cut was
    already cached (each referral followed is remembered for the NS
    records' TTL). Stale cut entries whose servers stop answering are
    dropped and the walk restarts from the roots. {!flush} zeroes it. *)
val metrics : t -> Obs.Metrics.scope
