(** The BIND name server.

    An authoritative server over one or more zones, answering queries
    on UDP and zone transfers on TCP, with two cost knobs that model
    the paper's measured behaviour: a per-query CPU charge (BIND kept
    everything in primary memory and did no authentication, hence its
    27 ms lookups versus the Clearinghouse's 156 ms) and a per-answer
    marshalling charge (the hand-coded BIND routines at 0.65–2.6 ms
    per reply, Table 3.2's fast path).

    When [allow_update] is set this is the {e modified} BIND of
    [Schwartz 1987]: it accepts dynamic UPDATE messages and serves
    UNSPEC records, which is how the HNS stores its meta-naming
    information. The stock 1987 BIND refuses updates. An optional
    [update_acl] restricts updates to listed source hosts (refusing
    everyone else), the way the prototype's meta-BIND trusted only
    the administrative machines. *)

type t

(** A subscriber that leaves 3 {e consecutive} NOTIFY pushes
    unacknowledged is presumed dead and deregistered (counted in
    [dns.notify.deregistered]); any ack clears the count, and
    re-registering reinstates the target. [hot_ranking] selects the
    hot-name scoring behind {!hot_ranked}; the default is
    [Hotrank.Decayed] with a 300 s half-life, so a flash crowd cannot
    flush the steady working set out of the prefetch hints. Pass
    [Hotrank.Sliding_count] explicitly to get the naive windowed
    counter back (the A/B baseline the load harness measures
    against). *)
val create :
  Transport.Netstack.stack ->
  ?port:int ->
  ?service_overhead_ms:float ->
  ?per_answer_ms:float ->
  ?allow_update:bool ->
  ?update_acl:Transport.Address.ip list ->
  ?hot_ranking:Hotrank.strategy ->
  unit ->
  t

val addr : t -> Transport.Address.t

(** The stack the server runs on (used by zone replication). *)
val stack : t -> Transport.Netstack.stack
val add_zone : t -> Zone.t -> unit
val zones : t -> Zone.t list

(** Install a query synthesizer: a hook consulted before the zone
    database on every question. Returning [Some rrs] answers the
    question with [rrs] (charged the usual per-answer marshalling);
    [None] falls through to the normal lookup. Used for server-side
    computed views over zone data — the HNS registers its
    [find_nsm_bundle] answerer here ({!Hns.Meta_bundle}), keeping this
    library independent of what is synthesized. One synthesizer per
    server; installing replaces the previous hook. *)
val set_synthesizer : t -> (Msg.question -> Rr.t list option) -> unit

(** {1 NOTIFY push}

    The modified BIND pushes an RFC 1996-style NOTIFY to each
    registered target whenever a dynamic update advances a zone
    serial, so secondaries and subscribed caches refresh immediately
    instead of waiting out their poll interval. Registration models
    BIND's [also-notify] configuration: whoever wires the deployment
    together registers the receivers. *)

val register_notify : t -> Transport.Address.t -> unit
val unregister_notify : t -> Transport.Address.t -> unit
val notify_targets : t -> Transport.Address.t list

(** Push [zone]'s current SOA to every registered target through
    {!Notify.push}, at most 8 in flight at a time, so one update
    cannot wake an unbounded number of simultaneous IXFR pulls at
    this tree level. Ack outcomes feed the subscriber liveness GC.
    The dynamic-update path calls this on every serial advance; a
    chained secondary calls it after an IXFR/AXFR pull moves its
    replica, cascading the wake-up one tree level at a time. *)
val notify_downstream : t -> zone:Zone.t -> unit

(** Called when {e this} server receives a NOTIFY (it is a secondary
    or subscriber). [serial] is the new serial from the pushed SOA
    when present. Handlers accumulate (one per attached secondary)
    and run on the server's service fiber — spawn if the reaction
    does real work. *)
val add_notify_handler :
  t -> (zone:Name.t -> serial:int32 option -> unit) -> unit

(** [notify_listener stack ~name ~zone on_notify] answers NOTIFYs for
    [zone] on a fresh UDP port of [stack], for a subscriber that is not
    itself a name server (the HNS meta client's cache). Each is acked
    after [on_notify] runs with the serial of the SOA it carries, if
    any; anything else gets no reply. [name] names the service fiber.
    Returns the listener's address and a stop function. *)
val notify_listener :
  Transport.Netstack.stack ->
  name:string ->
  zone:Name.t ->
  (int32 option -> unit) ->
  Transport.Address.t * (unit -> unit)

(** Spawn the UDP query loop and the TCP transfer loop. *)
val start : t -> unit

val stop : t -> unit

(** This server's own count: [dns.server.queries] (the queries it
    answered, off the network or through {!handle}), which
    [queries_served] reads directly. *)
val metrics : t -> Obs.Metrics.scope
val queries_served : t -> int

(** The [k] hottest names this server has answered A-record queries
    for, hottest first, with TTL-expired entries dropped and ties
    broken by {!Name.compare} — the ranking is fully deterministic.
    [group] restricts the ranking to one answering zone (the
    per-context view the bundle synthesizer's resolve-tail prefetch
    wants); omitted, groups are merged. Scores are {!Hotrank} scores:
    decayed hit mass under the default strategy, window counts under
    [Sliding_count]. *)
val hot_ranked :
  t -> ?group:string -> k:int -> unit -> (Name.t * float) list


(** Record a sighting for [name] in the hot ranking as if the server
    had just answered an A query for it, grouped under the zone that
    owns the name. This is the hint keep-alive: a name shipped as a
    prefetch hint answers from agent caches and stops generating
    query sightings here, while un-hinted names keep earning a
    cache-refill sighting per agent per refresh cycle — so the bundle
    server re-notes each hint as it serves it, cancelling that
    handicap. [ttl_ms] bounds how long the sighting stays rankable
    without renewal (typically the hint row's TTL). *)
val note_hot_name : t -> ?ttl_ms:float -> Name.t -> unit

(** Handle a request message directly (used by tests and by
    colocated configurations that shortcut the network). Charges no
    simulated cost; when [src] is omitted the update ACL is waived
    (a local caller). *)
val handle : ?src:Transport.Address.t -> t -> Msg.t -> Msg.t

(** The delegation covering [qname], if this server's zone data
    places it at or below a zone cut: the NS rrset at the cut and any
    glue A records. Lets layered answerers (the HNS bundle
    synthesizer) distinguish "delegated elsewhere" from "absent". *)
val delegation_for : t -> Name.t -> (Rr.t list * Rr.t list) option
