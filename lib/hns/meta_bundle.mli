(** Server-side answerer for the batched FindNSM meta query.

    A stock meta-BIND answers one mapping per round trip, which is why
    the paper's cold FindNSM costs six exchanges. [Meta_bundle] makes
    the {e modified} BIND bundle-aware: installed as a query
    synthesizer on the server ({!Dns.Server.set_synthesizer}), it
    recognizes T_UNSPEC questions for
    [<qclass>.<context>.bundle.hns-meta.] names and answers with the
    real records behind mappings 1–3 of that (context, query class)
    pair — plus, best-effort, the context and NSM-designation records
    for the binding host's address resolution (mappings 4–5) — headed
    by a status marker record at the bundle name itself
    ({!Meta_schema.bundle_status}).

    Unmodified servers have no synthesizer and answer bundle names
    with NXDOMAIN; {!Meta_client.find_nsm_bundle} treats that as "no
    bundle support" and falls back to per-mapping lookups, so old and
    new servers interoperate. Bundles served are counted in
    [hns.meta.bundle_served]. *)

(** Resolve-tail prefetch configuration: every bundle reply for a
    context in [contexts] (or any context when empty) additionally
    carries up to [k] piggybacked [HostAddress] rows — the
    server-selected hottest names for the {e requesting} context
    ([hot], typically {!Dns.Server.hot_ranked} on the confederation's
    public BIND keyed by the context's zone group), each resolved to
    an address via [addr_of]. Clients seed them under the
    pinned-preload quota ({!Meta_client.find_nsm_bundle}), so an
    agent-mediated cold resolve for a hot name skips the trailing
    remote NSM data round trip entirely. Rows offered are counted in
    [hns.meta.bundle_prefetch_offered]. *)
type prefetch = {
  k : int;
  contexts : string list;
  hot : context:string -> (Dns.Name.t * float) list;
  addr_of : Dns.Name.t -> Transport.Address.ip option;
  ttl_s : int32;
  note : (context:string -> Dns.Name.t -> unit) option;
      (** Hint keep-alive, called once per hint row actually served
          (shed rows excluded). A hinted name answers from agent
          caches and stops generating query sightings at the ranking
          server, while un-hinted names keep earning a cache-refill
          sighting per agent per refresh cycle; deployments wire this
          to {!Dns.Server.note_hot_name} so serving a hint renews the
          standing that earned it. [None] disables the feedback. *)
}

(** Install the bundle answerer on a server holding the [hns-meta]
    zone. Replaces any previously-installed synthesizer. [prefetch]
    (default none) enables the resolve-tail prefetch above. *)
val install : ?prefetch:prefetch -> Dns.Server.t -> unit
