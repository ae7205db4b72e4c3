(** Hot-name ranking strategies for the resolve-tail prefetch.

    The candidate set a server piggybacks on bundle replies
    ({!Hns.Meta_bundle}) is whatever it has been answering A-record
    queries for lately. How "lately" is scored decides whether the
    hints survive a flash crowd:

    - {!Sliding_count} is the naive scheme: a per-name counter inside
      a recency window; a name idle longer than the window is dropped
      from the ranking and its counter restarts on the next sighting.
      Under a flash crowd the steady working set stops reaching the
      server (agents answer it from their caches while the crowd
      monopolizes upstream traffic), goes idle past the window, and
      falls out of the hints — one-off tail names take its slots.
    - {!Decayed} is the fix: a per-name score that gains [1.0] per
      sighting and decays exponentially with the configured half-life.
      A steady name's accumulated mass shrinks smoothly through a
      quiet spell instead of resetting, so it keeps outranking
      single-sighting noise, and a burst concentrated on one name can
      claim only that one name's slot.

    Rankings are kept per {e group} (the caller's partition key — the
    server uses the answering zone, standing in for the requesting
    context since every context funnels its A queries through its own
    zone). A burst in one group cannot touch another group's ranking.

    Entries are TTL-aware: each sighting records the answered rrset's
    TTL, and an entry whose TTL has elapsed since its last sighting is
    dropped — a hint whose prefetched address would arrive already
    expired is worse than no hint.

    Everything is deterministic: ties break on {!Dns.Name.compare},
    and iteration order never leaks into results.

    Costs, for a group of [n] entries: {!note} is amortised O(1); a
    {!note} that finds the group at capacity first evicts in one pass
    over it. {!top} is one pass over the group that allocates O(k)
    words, its result and a k-slot buffer, however large [n] is. Each
    group keeps its entries in slots in no meaningful order. The
    ranking order (score descending, then {!Name.compare}) is a strict
    total order on distinct names, so slot order never shows in a
    result. *)

type strategy =
  | Sliding_count of { window_ms : float }
  | Decayed of { half_life_ms : float }

type t

(** [create ~strategy ()] — [default_ttl_ms] (default one hour) bounds
    entry lifetime when a sighting carries no TTL; [capacity] (default
    4096) bounds each group's table, evicting the lowest-scored entry
    (ties by name) when full. *)
val create : ?default_ttl_ms:float -> ?capacity:int -> strategy:strategy -> unit -> t

val strategy : t -> strategy

(** Record one positive sighting of [name] in [group] at [now_ms].
    [ttl_ms] is the answered record's remaining freshness horizon. *)
val note :
  t -> group:string -> now_ms:float -> ?ttl_ms:float -> Name.t -> unit

(** The current score of [name] as ranking would see it at [now_ms]:
    [None] if absent or TTL-expired. *)
val score : t -> group:string -> now_ms:float -> Name.t -> float option

(** Top [k] live names of [group], hottest first, scored at [now_ms].
    Ties break on {!Name.compare}; TTL-expired entries are dropped
    (and garbage-collected). *)
val top : t -> group:string -> now_ms:float -> k:int -> (Name.t * float) list

(** Top [k] across every group (a name appearing in several groups
    ranks by its highest score). *)
val top_merged : t -> now_ms:float -> k:int -> (Name.t * float) list

val groups : t -> string list
val clear : t -> unit
