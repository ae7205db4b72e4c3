(** The binding NSM for Clearinghouse subsystems (query class
    HRPCBinding).

    Xerox services are first-class Clearinghouse objects: the HNS
    individual name is the service object's local name, and its
    binding travels in the object's service-binding item property.
    When the ServiceName argument is nonempty it overrides the local
    part (one host context can then name services directly, mirroring
    the Sun NSM's (host, service) interface). Its interface is
    identical to {!Binding_nsm_bind}'s — that is the whole point. *)

type t

(** Bindings are cached for 600 s. *)
val create :
  Transport.Netstack.stack ->
  ch_server:Transport.Address.t ->
  credentials:Clearinghouse.Ch_proto.credentials ->
  domain:string ->
  org:string ->
  ?cache:Hns.Cache.t ->
  ?per_query_ms:float ->
  unit ->
  t

val impl : t -> Hns.Nsm_intf.impl

(** Export as a remote NSM ({!Nsm_common.serve}). *)
val serve : t -> prog:int -> ?service_overhead_ms:float -> unit -> Hrpc.Server.t
