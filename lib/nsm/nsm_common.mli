(** Shared plumbing for NSM implementations.

    "The NSMs are neither HNS nor application code per se. Rather,
    they are code managed by the HNS and shared by the applications."
    Every NSM here is written once as an {!Hns.Nsm_intf.impl} and can
    then be linked with any process or exported as a remote HRPC
    service — the colocation freedom of Section 3. *)

(** [serve stack ~impl ~payload_ty ~prog ?vers ?suite ?port
    ?service_overhead_ms ()] exports a linked NSM instance as a remote
    NSM. The returned server is not yet started. *)
val serve :
  Transport.Netstack.stack ->
  impl:Hns.Nsm_intf.impl ->
  payload_ty:Wire.Idl.ty ->
  prog:int ->
  ?vers:int ->
  ?suite:Hrpc.Component.protocol_suite ->
  ?port:int ->
  ?service_overhead_ms:float ->
  unit ->
  Hrpc.Server.t

(** [instrument ~name impl] wraps an NSM implementation with registry
    accounting under [nsm.<name>.calls] / [.errors] / [.ms] (virtual
    milliseconds; errors are backend failures raised as exceptions,
    not NotFound results). *)
val instrument : name:string -> Hns.Nsm_intf.impl -> Hns.Nsm_intf.impl

(** A per-NSM result cache with the standard key layout
    ["nsm:<tag>:<service>!<context>!<name>"]. *)
val cache_key : tag:string -> service:string -> Hns.Hns_name.t -> string

(** Parse a dotted-quad address ("10.0.0.7"); [None] if malformed. *)
val parse_dotted_quad : string -> Transport.Address.ip option
