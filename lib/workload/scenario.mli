(** The standard simulated HCS testbed.

    Reproduces the paper's measurement environment: MicroVAX-class
    hosts on a lightly loaded Ethernet; a public BIND serving the
    [cs.washington.edu] zone; the modified meta-BIND serving
    [hns-meta.]; a Clearinghouse for the Xerox subsystem; a portmapper
    and a Sun RPC target service ("DesiredService") to import; plus
    remote NSM servers for both name services, registered in the
    meta-naming database. All costs come from {!Calib}.

    [build] returns with every server running and every registration
    done (it runs the engine to quiescence once). Experiment code then
    uses {!in_sim} to execute client work on the virtual clock. *)

type t = {
  engine : Sim.Engine.t;
  topo : Sim.Topology.t;
  net : Transport.Netstack.t;
  client_stack : Transport.Netstack.stack;
  agent_stack : Transport.Netstack.stack;
  nsm_stack : Transport.Netstack.stack;
  meta_stack : Transport.Netstack.stack;
  bind_stack : Transport.Netstack.stack;
  ch_stack : Transport.Netstack.stack;
  service_stack : Transport.Netstack.stack;
  meta_bind : Dns.Server.t;
  meta_zone : Dns.Zone.t;  (** the [hns-meta.] zone [meta_bind] owns *)
  meta_replica_servers : Dns.Server.t list;
      (** Meta-zone replica fleet ([build ?meta_replicas]): idle plain
          servers until {!attach_meta_replicas} chains them under the
          primary; {!new_hns} clients route reads over them via a
          per-client {!Dns.Replica_set}. *)
  public_bind : Dns.Server.t;
  public_zone : Dns.Zone.t;
  ch : Clearinghouse.Ch_server.t;
  portmap : Rpc.Portmap.t;
  credentials : Clearinghouse.Ch_proto.credentials;
  zone : string;
  bind_context : string;
  ch_context : string;
  service_name : string;
  service_host : string;
  target_prog : int;
  target_vers : int;
  expected_sun_binding : Hrpc.Binding.t;
  courier_service_name : string;
  expected_courier_binding : Hrpc.Binding.t;
  ch_domain : string;
  ch_org : string;
  nsm_binding_bind : string;
  nsm_hostaddr_bind : string;
  nsm_binding_ch : string;
  nsm_hostaddr_ch : string;
  remote_binding_nsm_bind : Nsm.Binding_nsm_bind.t;
  remote_hostaddr_nsm_bind : Nsm.Hostaddr_nsm_bind.t;
  remote_binding_nsm_ch : Nsm.Binding_nsm_ch.t;
  remote_hostaddr_nsm_ch : Nsm.Hostaddr_nsm_ch.t;
  localfile : Baseline.Localfile.t;
  rereg : Baseline.Rereg_ch.t;
  cache_mode : Hns.Cache.mode;
  bundle_enabled : bool;
      (** The meta-BIND answers batched FindNSM queries
          ({!Hns.Meta_bundle}), and {!new_hns} defaults to issuing
          them. *)
  hand_codec_enabled : bool;
      (** {!new_hns} clients default to the hand-marshalled hot codec
          ({!Wire.Hotcodec} / {!Hns.Hot_codec}) at {!Calib.hand_cost},
          with Generic_marshal as the cold-shape fallback. *)
  alt_service_names : string list;
      (** Importable alternates for [service_name] with varied name
          lengths (same target program) — bench iterations sample
          across them so repeated runs yield distinct latencies. *)
}

(** [build ?cache_mode ?extra_hosts ?bundle ?prefetch ()] —
    [cache_mode] (default [Marshalled], as in the paper's Table 3.1
    measurements) applies to every HNS and NSM cache the scenario
    creates. [bundle] (default off) installs the batched-FindNSM
    answerer on the meta-BIND and makes {!new_hns} clients use it.
    [prefetch] (default off, requires [bundle]) makes the bundle
    answerer piggyback the public BIND's hottest host addresses
    (resolve-tail prefetch) — kept separate from [bundle] so existing
    bundle benchmarks measure the unprefetched path. [hot_ranking]
    overrides the public BIND's hot-name scoring (default: decayed —
    the load harness passes [Sliding_count] to measure the naive
    baseline); [prefetch_k] (default 8) is the piggyback budget;
    [nsm_cache_ttl_ms] shortens the shared remote host-address NSM's
    cache so its BIND A queries (the hot tracker's signal) recur at a
    realistic rate under sustained load. [hand_codec] (default off, to
    preserve the paper's measured generated-stub costs) makes
    {!new_hns} clients use the hand-marshalled hot-path codec.
    [meta_replicas] (default 0) adds that many meta-zone replica
    servers — see {!attach_meta_replicas}. *)
val build :
  ?cache_mode:Hns.Cache.mode ->
  ?extra_hosts:int ->
  ?bundle:bool ->
  ?hand_codec:bool ->
  ?prefetch:bool ->
  ?hot_ranking:Dns.Hotrank.strategy ->
  ?prefetch_k:int ->
  ?nsm_cache_ttl_ms:float ->
  ?meta_replicas:int ->
  unit ->
  t

(** Start the replica fleet and chain it under the meta primary (IXFR
    + NOTIFY). Must run inside {!in_sim}; pass the result to
    {!detach_meta_replicas} before that driving window ends, or the
    replicas' poll backstops keep the engine from draining. *)
val attach_meta_replicas : t -> Dns.Secondary.t list

val detach_meta_replicas : t -> Dns.Secondary.t list -> unit

(** Run a thunk as a simulated process and drive the engine to
    quiescence; returns the thunk's value. *)
val in_sim : t -> (unit -> 'a) -> 'a

(** Virtual-time duration of a thunk, for use {e inside} [in_sim]. *)
val timed : (unit -> 'a) -> 'a * float

(** {1 Component factories (calibrated)} *)

val new_cache : t -> unit -> Hns.Cache.t
val new_nsm_cache : t -> unit -> Hns.Cache.t

(** An HNS instance on a stack, with fresh linked host-address NSMs.
    [staleness_budget_ms] enables serve-stale on its cache;
    [rpc_policy] sets retry/backoff behavior for its HRPC exchanges;
    [enable_bundle] (default: the scenario's [bundle_enabled]) makes
    it issue batched FindNSM meta queries; [negative_ttl_ms] enables
    negative caching of absent meta records; [nsm_cache_ttl_ms]
    shortens this instance's {e linked} host-address NSM caches
    (default 600 s) so sustained traffic re-queries the public BIND —
    the load harness uses it to give the hot tracker a live sighting
    stream; [cache_mode] (default: the scenario's) overrides the cache
    representation — the v2 shared agent runs demarshalled regardless
    of what the measured 1987 clients use; [hand_codec] (default: the
    scenario's [hand_codec_enabled]) switches this instance's hot
    record shapes onto the hand-marshalled codec. *)
val new_hns :
  ?staleness_budget_ms:float ->
  ?rpc_policy:Rpc.Control.retry_policy ->
  ?enable_bundle:bool ->
  ?negative_ttl_ms:float ->
  ?nsm_cache_ttl_ms:float ->
  ?cache_mode:Hns.Cache.mode ->
  ?hand_codec:bool ->
  t ->
  on:Transport.Netstack.stack ->
  Hns.Client.t

(** [alternates] (default off) makes the NSM also serve every
    [alt_service_names] entry; {!arrange} turns it on so the import
    bench can vary the requested service per iteration. *)
val new_binding_nsm_bind :
  ?alternates:bool -> t -> on:Transport.Netstack.stack -> Nsm.Binding_nsm_bind.t

val new_binding_nsm_ch : t -> on:Transport.Netstack.stack -> Nsm.Binding_nsm_ch.t

(** {1 Colocation arrangements (Table 3.1)} *)

(** Everything one arrangement's measurement needs: the import
    environment plus handles to the caches in play. *)
type parties = {
  env : Hns.Import.env;
  hns : Hns.Client.t;
  hns_cache : Hns.Cache.t;
  nsm_bind : Nsm.Binding_nsm_bind.t;
  nsm_cache : Hns.Cache.t;
  agent : Hns.Agent.t option;
}

(** Must run inside {!in_sim} (it may start agent servers). *)
val arrange : t -> Hns.Import.arrangement -> parties

val stop_parties : parties -> unit

(** Flush every cache belonging to the parties. *)
val flush_parties : parties -> unit
