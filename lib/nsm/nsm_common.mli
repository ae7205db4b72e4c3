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

(** The cache given to an NSM's constructor, or a fresh demarshalled
    one. *)
val own_cache : Hns.Cache.t option -> Hns.Cache.t

(** One backend step: found, not found, or failed with the message the
    NSM fails with. *)
type 'a step = ('a option, string) result

(** [and_then step next] runs [next] on what [step] found. *)
val and_then : 'a step -> ('a -> 'b step) -> 'b step

(** [lookup cache ~tag ~service hns_name ~ty ~ttl_ms ~per_query_ms
    fetch] is every NSM's lookup, a {!Hns.Cache.through} under the key
    ["nsm:<tag>:<service>!<context>!<name>"]. A miss charges
    [per_query_ms] and runs [fetch]; what it finds is cached for
    [ttl_ms] and answered found; nothing found is answered not found.
    A failed [fetch] is answered from an expired entry inside the
    cache's staleness budget, else raised as [Failure]. *)
val lookup :
  Hns.Cache.t ->
  tag:string ->
  service:string ->
  Hns.Hns_name.t ->
  ty:Wire.Idl.ty ->
  ttl_ms:float ->
  per_query_ms:float ->
  (unit -> Wire.Value.t step) ->
  Wire.Value.t

(** {2 Backend steps shared by the NSMs} *)

(** A ServiceName directory: name → Sun RPC (program, version). *)
type directory = (string, int * int) Hashtbl.t

val directory : (string * (int * int)) list -> directory

(** The directory's entry, or the ServiceName read as ["<prog>:<vers>"];
    fails on anything else. *)
val service_numbers : directory -> string -> (int * int, string) result

(** A host's address from BIND: NXDOMAIN and NODATA are not found. *)
val bind_a : Dns.Resolver.t -> string -> Transport.Address.ip step

(** One item property of a Clearinghouse object [local:domain:org],
    over a connection opened and closed for it. A refused connection
    fails like any other RPC error. *)
val ch_retrieve :
  Transport.Netstack.stack ->
  server:Transport.Address.t ->
  credentials:Clearinghouse.Ch_proto.credentials ->
  domain:string ->
  org:string ->
  prop:int ->
  string ->
  string step

(** A host's address from the YP [hosts.byname] map. *)
val yp_host_addr : Yp.Yp_client.t -> string -> Transport.Address.ip step

(** [sun_binding stack host_ip ~prog ~vers] asks the host's portmapper
    for the program's port and answers the Sun RPC binding value. *)
val sun_binding :
  Transport.Netstack.stack -> Transport.Address.ip -> prog:int -> vers:int -> Wire.Value.t step
