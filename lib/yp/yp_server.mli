(** ypserv: the NIS map server (a native Sun RPC program).

    Maps are ordered key→value tables per domain. Keys iterate in
    insertion order through FIRST/NEXT, as real ypserv enumerates its
    dbm files. *)

type t

(** [create stack ?port ?lookup_ms ~domain ()] — [lookup_ms] is the
    simulated cost per map operation. Registers with no portmapper;
    callers register the returned port themselves (matching how ypserv
    and portmap interact at boot). *)
val create :
  Transport.Netstack.stack ->
  ?port:int ->
  ?lookup_ms:float ->
  domain:string ->
  unit ->
  t

val port : t -> int
val addr : t -> Transport.Address.t

(** Set a key (insertion order preserved; existing key keeps its
    position). *)
val set : t -> map:string -> key:string -> string -> unit

val remove : t -> map:string -> key:string -> unit
val start : t -> unit
val stop : t -> unit
