(** The host-address NSM for Clearinghouse subsystems (query class
    HostAddress): host object → address item property. *)

type t

val create :
  Transport.Netstack.stack ->
  ch_server:Transport.Address.t ->
  credentials:Clearinghouse.Ch_proto.credentials ->
  domain:string ->
  org:string ->
  ?cache:Hns.Cache.t ->
  ?cache_ttl_ms:float ->
  ?per_query_ms:float ->
  unit ->
  t

val impl : t -> Hns.Nsm_intf.impl

(** Export as a remote NSM ({!Nsm_common.serve}). *)
val serve : t -> prog:int -> ?service_overhead_ms:float -> unit -> Hrpc.Server.t

(** Encoding used for the address item property: 4 big-endian bytes.
    Exposed so setup code stores what this NSM reads. *)
val encode_address : Transport.Address.ip -> string
