(** The host-address NSM for YP (NIS) subsystems: host name →
    address, via a MATCH against the domain's [hosts.byname] map.

    The third name service type in the federation. Its existence is
    the paper's point: to support HostAddress queries for the Sun
    machines' YP world, this one NSM is written and registered — no
    client, no other NSM, and no HNS code changes. *)

type t

(** The NSM keeps its own demarshalled cache; addresses stay in it for
    600 s. *)
val create :
  Transport.Netstack.stack ->
  yp_server:Transport.Address.t ->
  domain:string ->
  ?per_query_ms:float ->
  unit ->
  t

(** Export as a remote NSM ({!Nsm_common.serve}). *)
val serve : t -> prog:int -> ?service_overhead_ms:float -> unit -> Hrpc.Server.t
