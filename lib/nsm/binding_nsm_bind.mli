(** The binding NSM for BIND subsystems (query class HRPCBinding).

    Given an HNS name whose individual name is a DNS host name and a
    ServiceName, this NSM "looks up the local name in the name
    service, and then determines the needed port number for the
    ServiceName, using whatever binding protocol is appropriate for
    that particular system" — here the Sun protocol: resolve the
    host's address in BIND, then ask that host's portmapper.

    ServiceNames resolve to Sun RPC (program, version) pairs through
    the NSM's service directory, or directly when written
    ["<prog>:<vers>"].

    The paper's BIND binding NSM took about 230 lines; this one is
    about 60, because the read-through cache and the BIND and
    portmapper steps live in {!Nsm_common}. *)

type t

val create :
  Transport.Netstack.stack ->
  bind_server:Transport.Address.t ->
  ?services:(string * (int * int)) list ->
  ?cache:Hns.Cache.t ->
  ?cache_ttl_ms:float ->
  ?per_query_ms:float ->
  unit ->
  t

(** Add a ServiceName → (program, version) entry. *)
val add_service : t -> string -> prog:int -> vers:int -> unit

(** The NSM as a linkable instance. *)
val impl : t -> Hns.Nsm_intf.impl

val cache : t -> Hns.Cache.t

(** Warm the result cache for every (directory service x host) pair.
    Unlike the HNS meta preload there is no bulk-transfer shortcut —
    each entry costs a full BIND lookup plus a portmapper exchange,
    which is why the paper judged NSM-cache preloading "less
    effective". Pairs that fail to resolve are skipped. Returns the
    number of entries cached. *)
val preload : t -> context:string -> hosts:string list -> int

(** Export as a remote NSM ({!Nsm_common.serve}). *)
val serve : t -> prog:int -> ?service_overhead_ms:float -> unit -> Hrpc.Server.t
