(** Hosts and network delay model.

    The testbed in the paper is a set of MicroVAX-IIs on a 10 Mbit/s
    Ethernet at light load. We model message delay between two distinct
    hosts as [latency + bytes * per_byte]; messages a host sends to
    itself cross the loopback at a much smaller fixed cost. Individual
    links can be overridden (e.g. to model a slow gateway). *)

type t

type host = private { id : int; hostname : string }

(** 10 Mbit/s Ethernet defaults: 0.5 ms fixed + 0.8 us/byte wire time,
    0.05 ms loopback. These only set the floor; the dominant costs in
    the paper (server CPU, disk, auth) are modelled by the services. *)
val create :
  ?default_latency_ms:float ->
  ?default_per_byte_ms:float ->
  ?loopback_ms:float ->
  unit ->
  t

(** [add_host t name] registers a host. Host names must be unique.
    Raises [Invalid_argument] on duplicates. *)
val add_host : t -> string -> host

val find_host : t -> string -> host option
val hosts : t -> host list

(** Override delay parameters for the (unordered) pair of hosts. *)
val set_link : t -> host -> host -> latency_ms:float -> per_byte_ms:float -> unit

(** [delay t ~src ~dst ~bytes] is the simulated transit time in ms. *)
val delay : t -> src:host -> dst:host -> bytes:int -> float

val same_host : host -> host -> bool
