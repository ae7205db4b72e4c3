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

(** Cached answers and referrals expire after their TTL, capped at one
    hour (3,600,000 ms). *)
val create :
  Transport.Netstack.stack ->
  servers:Transport.Address.t list ->
  ?enable_cache:bool ->
  ?negative_ttl_ms:float ->
  unit ->
  t

(** [query t name rtype] resolves, consulting the cache first. *)
val query : t -> Name.t -> Rr.rtype -> (Rr.t list, error) result

(** Iterative resolution: treat the configured servers as the roots
    and follow zone-cut referrals (using glue addresses when present,
    resolving nameserver names from the roots otherwise) until an
    authoritative answer arrives. Results are cached like any other.
    Each referral followed is remembered for its NS records' TTL, so a
    later resolve below a cached cut skips the root walk (counted in
    [dns.resolver.referral_hits]); a cut whose servers stop answering
    is dropped and the walk restarts from the roots. Fails with
    [Server_error Refused] on referral loops. *)
val query_iterative : t -> Name.t -> Rr.rtype -> (Rr.t list, error) result

(** Convenience: first A record. *)
val lookup_a : t -> Name.t -> (Transport.Address.ip, error) result

(** Insert records directly (used by zone-transfer preloading).
    TTL semantics match a normal answer. *)
val seed : t -> Name.t -> Rr.rtype -> Rr.t list -> unit

val cache_hits : t -> int

(** Hits answered from the negative cache (name known absent). When
    [negative_ttl_ms] is 0 (the default, as in 1987 BIND) there are
    none; set it to enable RFC 2308-style negative caching. *)
val negative_hits : t -> int
