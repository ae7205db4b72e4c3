(** Timed fault plans — the chaos DSL.

    A plan is a list of scheduled faults against the virtual clock.
    Each fault is active over a half-open window [[at, heal_at)); a
    packet is judged against every active fault at its send instant.
    Hosts are named by their {!Sim.Topology} hostname; an empty host
    list means "every host".

    Plans are pure data: building one touches nothing. Apply a plan to
    a running {!Transport.Netstack.t} with {!Injector.install}. *)

type fault =
  | Crash of { host : string; from_ms : float; until_ms : float }
      (** fail-stop: every packet to or from the host is dropped,
          including loopback — the host is simply off the air *)
  | Partition of {
      group_a : string list;
      group_b : string list;
      from_ms : float;
      until_ms : float;
    }  (** packets between the two groups are dropped, both ways *)
  | Latency of {
      hosts : string list;
      from_ms : float;
      until_ms : float;
      add_ms : float;
      ramp : bool;
    }
      (** extra one-way delay on packets touching [hosts]; with [ramp]
          the surcharge grows linearly from 0 at [from_ms] to [add_ms]
          at [until_ms] *)
  | Corrupt of {
      dst_hosts : string list;
      from_ms : float;
      until_ms : float;
      probability : float;
    }
      (** each datagram headed to [dst_hosts] is corrupted (one byte
          flipped) with the given probability; reliable (TCP) segments
          are never corrupted — checksums would have discarded them *)
  | Torn_write of {
      host : string;
      from_ms : float;
      until_ms : float;
      probability : float;
    }
      (** when the disk named [host] crashes in the window, each file
          with unsynced bytes independently keeps a random prefix of
          them with the given probability — the half-written sector of
          a power loss mid-commit. Judged by
          {!Injector.install_disk}, not by the netstack. *)

type t = fault list

(** {1 Constructors (validated)} *)

(** [crash ~host ~at ()] never heals; give [heal_at] to restart. *)
val crash : host:string -> at:float -> ?heal_at:float -> unit -> fault

val partition :
  group_a:string list -> group_b:string list -> at:float -> heal_at:float -> fault

val latency_spike :
  ?hosts:string list ->
  at:float ->
  heal_at:float ->
  add_ms:float ->
  ?ramp:bool ->
  unit ->
  fault

val corrupt :
  ?dst_hosts:string list -> at:float -> heal_at:float -> probability:float -> unit -> fault

(** [torn_write ~host ~at ~probability ()] never heals: its window ends
    at [infinity]. *)
val torn_write : host:string -> at:float -> probability:float -> unit -> fault

val to_string : t -> string
