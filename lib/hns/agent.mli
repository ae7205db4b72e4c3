(** The HNS agent: a long-lived per-host process that hosts an HNS
    instance (and optionally NSM instances) and serves every client
    process on its host over HRPC.

    This realizes the remote-HNS colocation arrangements of Table 3.1:
    row 2's combined agent ("a single process remote from the client
    acted as the client's agent, making local calls to the HNS and
    then to the NSM"), and rows 3/5's standalone remote HNS serving
    FindNSM. Caching is "more likely to be effective in long-lived
    remote servers than in locally linked copies" — the agent is that
    long-lived server, and v2 makes the sharing real:

    - one demarshalled cache inside the agent serves all client
      processes;
    - the agent runs its own singleflight table over whole replies, so
      concurrent identical requests from {e different processes}
      collapse into one upstream meta query (its HRPC server
      dispatches concurrently to let them meet);
    - {!proc_resolve_addr} serves complete host-address resolutions,
      letting clients ride the agent's resolve-tail prefetch
      ({!Meta_bundle}) and skip the trailing remote NSM round trip. *)

val agent_prog : int
val agent_vers : int

(** proc 1: FindNSM(context, query class) → (nsm name, binding). *)
val proc_find_nsm : int

val find_nsm_sign : Wire.Idl.signature

(** proc 2: Import(service, hns name) → service binding
    (the agent calls the NSM itself, locally when linked). *)
val proc_import : int

val import_sign : Wire.Idl.signature

(** proc 3: ResolveAddr(hns name) → host address. A full
    FindNSM-plus-data resolution run inside the agent, where the
    shared cache (including prefetched rows) can answer the data step
    without the remote NSM. *)
val proc_resolve_addr : int

val resolve_addr_sign : Wire.Idl.signature

type t

(** [create hns ?linked_nsms ?port ~suite ()] — [linked_nsms] maps NSM
    names to instances the agent holds locally; unlisted NSMs are
    called remotely through their bindings. The agent's HRPC server is
    created concurrent so duplicate in-flight requests coalesce. *)
val create :
  Client.t ->
  ?linked_nsms:(string * Nsm_intf.impl) list ->
  ?port:int ->
  ?suite:Hrpc.Component.protocol_suite ->
  ?service_overhead_ms:float ->
  unit ->
  t

val binding : t -> Hrpc.Binding.t
val start : t -> unit

(** Stops the HRPC server. *)
val stop : t -> unit

(** The agent's own HNS instance (whose cache is the shared cache). *)
val hns : t -> Client.t

(** {1 Stats} *)

(** This agent's own counts: [hns.agent.requests] (served over all
    procedures, coalesced followers included), [hns.agent.cache_hits]
    (answered without any upstream meta lookup) and
    [hns.agent.coalesced] (joined another process's in-flight identical
    request). The shared cache's prefetch counts are in its HNS's
    {!Meta_client.metrics}. *)
val metrics : t -> Obs.Metrics.scope

(** Cache hits over requests that actually computed (followers
    excluded); 0 before any traffic. *)
val cache_hit_ratio : t -> float

(** {1 Client-side wrappers} *)

val remote_find_nsm :
  Transport.Netstack.stack ->
  agent:Hrpc.Binding.t ->
  context:string ->
  query_class:Query_class.t ->
  (string * Hrpc.Binding.t, Errors.t) result

val remote_import :
  Transport.Netstack.stack ->
  agent:Hrpc.Binding.t ->
  service:string ->
  Hns_name.t ->
  (Hrpc.Binding.t, Errors.t) result

val remote_resolve_addr :
  Transport.Netstack.stack ->
  agent:Hrpc.Binding.t ->
  Hns_name.t ->
  (Transport.Address.ip, Errors.t) result
