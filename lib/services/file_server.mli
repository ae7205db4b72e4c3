(** A per-subsystem file server.

    The HCS filing service does not replace the file systems of the
    component subsystems; each host keeps its own server, speaking its
    own RPC system (Sun RPC on the Unix machines, Courier on the
    XDE machines). The heterogeneous filing client ({!Filing}) finds
    the right server through the HNS and talks to it through HRPC.

    Procedures (program {!prog}): 1 fetch, 2 store, 3 remove, 4 list. *)

val prog : int
val vers : int
val proc_fetch : int
val proc_store : int
val proc_remove : int
val proc_list : int

val fetch_sign : Wire.Idl.signature
val store_sign : Wire.Idl.signature
val remove_sign : Wire.Idl.signature
val list_sign : Wire.Idl.signature

type t

(** [create stack ~suite ?port ?io_ms ()] — [io_ms] is the simulated
    disk cost charged per fetch/store. *)
val create :
  Transport.Netstack.stack ->
  suite:Hrpc.Component.protocol_suite ->
  ?port:int ->
  ?io_ms:float ->
  unit ->
  t

(** Local (administrative) access to the store. *)
val put : t -> name:string -> string -> unit

val get : t -> name:string -> string option
val binding : t -> Hrpc.Binding.t
val start : t -> unit
