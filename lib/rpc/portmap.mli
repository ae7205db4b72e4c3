(** The Sun RPC binding protocol: the portmapper (program 100000).

    Each host that exports Sun RPC services runs a portmapper on port
    111. Servers register their (program, version, protocol) → port
    mapping locally; clients ask the remote portmapper with GETPORT
    before the first call. This is the per-system "binding protocol"
    that the BIND binding-NSM executes on behalf of HNS clients. *)

val program : int   (* 100000 *)
val version : int   (* 2 *)
val proc_set : int

type protocol = P_udp | P_tcp

type t

(** Start the host's portmapper (a Sun RPC server on port 111). *)
val start : ?service_overhead_ms:float -> Transport.Netstack.stack -> t

(** Local registration, as a server's init code would do at startup. *)
val set : t -> prog:int -> vers:int -> protocol:protocol -> port:int -> unit

val unset : t -> prog:int -> vers:int -> protocol:protocol -> unit

(** Remote GETPORT for the UDP mapping, with {!Sunrpc.call}'s default
    timeout and attempts. [Ok None] means the mapping is not registered
    (the portmapper answered port 0). *)
val getport :
  Transport.Netstack.stack ->
  portmapper:Transport.Address.ip ->
  prog:int ->
  vers:int ->
  unit ->
  (int option, Control.error) result
