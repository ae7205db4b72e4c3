(** NSMs for the FileLocation query class: where a named file lives in
    the HCS filing service. A {!Text_nsm} instantiated per backend. *)

val create_bind :
  Transport.Netstack.stack ->
  bind_server:Transport.Address.t ->
  ?cache:Hns.Cache.t ->
  ?per_query_ms:float ->
  unit ->
  Text_nsm.t

(** The NSM keeps its own demarshalled cache. *)
val create_ch :
  Transport.Netstack.stack ->
  ch_server:Transport.Address.t ->
  credentials:Clearinghouse.Ch_proto.credentials ->
  domain:string ->
  org:string ->
  ?per_query_ms:float ->
  unit ->
  Text_nsm.t
