(** The host-address NSM for BIND subsystems (query class
    HostAddress): host name → network address via an A-record lookup.

    Instances of this NSM are what FindNSM links directly with the
    HNS to terminate its recursion; it can equally be served
    remotely for ordinary clients of the HostAddress query class. *)

type t

val create :
  Transport.Netstack.stack ->
  bind_server:Transport.Address.t ->
  ?cache:Hns.Cache.t ->
  ?cache_ttl_ms:float ->
  ?per_query_ms:float ->
  unit ->
  t

val impl : t -> Hns.Nsm_intf.impl
val cache : t -> Hns.Cache.t

(** Export as a remote NSM ({!Nsm_common.serve}). *)
val serve : t -> prog:int -> ?service_overhead_ms:float -> unit -> Hrpc.Server.t
