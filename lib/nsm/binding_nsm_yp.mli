(** The binding NSM for YP (NIS) subsystems (query class HRPCBinding).

    Sun machines running NIS still bind with the Sun protocol: look
    the host up in [hosts.byname], then ask that host's portmapper —
    the same (host, service) interface as {!Binding_nsm_bind}, with a
    different name service underneath, which is exactly the NSM
    contract. *)

type t

(** The NSM keeps its own demarshalled cache; bindings stay in it for
    600 s. A lookup charges no time beyond its YP and portmapper
    calls. *)
val create :
  Transport.Netstack.stack ->
  yp_server:Transport.Address.t ->
  domain:string ->
  ?services:(string * (int * int)) list ->
  unit ->
  t

val impl : t -> Hns.Nsm_intf.impl
