(** Load-aware routing over a zone's replica tree.

    A replica set names one partition of the meta namespace: the
    primary that accepts dynamic updates for the zone, plus the
    replicas ({!Secondary} attachments, possibly chained) that serve
    reads. Each client holds its own set per partition — discovered
    from a referral or configured up front — and asks it which server
    should take the next read.

    Selection balances {e recency-decayed request mass} (the
    {!Hotrank} decay discipline: a member's mass halves every
    2000 ms and gains 1 per selection) against an EWMA of
    observed latency, so a client both spreads load and gravitates to
    near replicas. Ties break on {!Transport.Address.compare} so runs
    are deterministic.

    Read-your-writes: a reader that just wrote at serial [s] passes
    [~min_serial:s]; only members whose last-seen SOA serial has
    caught up qualify. When none qualifies the set probes member SOA
    serials (rate-limited to one sweep per 250 ms) and,
    failing that, falls back to the primary — counted in
    [dns.replica.primary_fallbacks] — so the client never observes a
    version older than its own write.

    Members that time out are quarantined for 3000 ms and the
    set routes around them, which is what keeps resolves flowing while
    a replica crashes and re-bootstraps from its durable image.

    A serial probe is {!Exchange.soa_serial} over one 80 ms UDP
    attempt, counted in [dns.replica.serial_probes]. *)

type t

(** [create stack ~zone ~primary ~replicas] — [stack] is the calling
    client's endpoint, used only for SOA serial probes. An empty
    [replicas] list is legal; every {!select} then returns the
    primary. *)
val create :
  Transport.Netstack.stack ->
  zone:Name.t ->
  primary:Transport.Address.t ->
  replicas:Transport.Address.t list ->
  t

(** Pick the read target: the non-quarantined qualifying member with
    the least [(1 + decayed mass) * (1 + EWMA latency)], charging it
    one unit of mass. [~min_serial] restricts to members whose
    last-seen serial has caught up (probing if none has, falling back
    to the primary otherwise). *)
val select : ?min_serial:int32 -> t -> Transport.Address.t

(** Feed back the outcome of a read sent to [addr] (unknown addresses
    are ignored). Failure quarantines the member. *)
val note_result :
  t -> Transport.Address.t -> ok:bool -> latency_ms:float -> unit

(** SOA-probe every member now, ignoring the rate limit. *)
val refresh_serials : t -> unit

val primary : t -> Transport.Address.t

(** This set's own counts: [dns.replica.routed] (reads routed to
    replicas: the sum of its members' [selected]) and
    [dns.replica.primary_fallbacks] (reads that fell back to the
    primary). *)
val metrics : t -> Obs.Metrics.scope

type member_stats = {
  addr : Transport.Address.t;
  load : float;  (** decayed request mass, as of now *)
  latency_ms : float;  (** EWMA; negative when no sample yet *)
  serial : int32 option;  (** last-seen SOA serial *)
  selected : int;  (** reads routed to it, counted in [dns.replica.routed] *)
  quarantined : bool;
}

(** Per-member rows, sorted by address (for [hns_cli stats]). *)
val stats : t -> member_stats list
