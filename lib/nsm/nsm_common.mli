(** Shared plumbing for NSM implementations.

    "The NSMs are neither HNS nor application code per se. Rather,
    they are code managed by the HNS and shared by the applications."
    Every NSM here is written once as an {!Hns.Nsm_intf.impl} and can
    then be linked with any process or exported as a remote HRPC
    service — the colocation freedom of Section 3. *)

(** [serve stack ~impl ~payload_ty ~prog ?service_overhead_ms ()]
    exports a linked NSM instance as a remote NSM: version 1 of
    program [prog], over the Sun RPC suite, on a port allocated on
    [stack]. The returned server is not yet started. *)
val serve :
  Transport.Netstack.stack ->
  impl:Hns.Nsm_intf.impl ->
  payload_ty:Wire.Idl.ty ->
  prog:int ->
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
