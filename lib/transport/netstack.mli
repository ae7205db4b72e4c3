(** The simulated internet: one [t] per simulation, one {!stack} per
    attached host.

    A stack owns its host's IP and its UDP/TCP port tables; the [t]
    owns the (optional) packet-loss model. Transit of a message
    between stacks costs {!Sim.Topology.delay} of virtual time;
    delivery is a scheduled engine event, so concurrent traffic
    interleaves deterministically. *)

type t
type stack

val create :
  ?drop_probability:float -> ?seed:int64 -> Sim.Engine.t -> Sim.Topology.t -> t

val engine : t -> Sim.Engine.t
val topology : t -> Sim.Topology.t

(** [attach t host] creates the host's stack and assigns the next IP
    (starting at 10.0.0.1). A host can attach at most once. *)
val attach : t -> Sim.Topology.host -> stack

val ip : stack -> Address.ip
val host : stack -> Sim.Topology.host
val net : stack -> t
val find_stack : t -> Address.ip -> stack option
val stack_of_host : t -> Sim.Topology.host -> stack option

(** Every attached stack, in attachment order (used by broadcast). *)
val all_stacks : t -> stack list

(** {1 Fault injection}

    A simulation may install one {e fault oracle}: a pure function the
    netstack consults on every transit with the virtual time, the
    endpoint hosts, and (for datagram sends) the payload. The oracle
    decides whether the packet passes untouched, is dropped (counted in
    [packets_dropped], so the send/receive invariant survives), or is
    delivered late and/or with a rewritten payload. [lib/chaos] builds
    oracles from timed fault plans; the netstack itself stays
    policy-free. *)

type fault_verdict =
  | Fault_pass
  | Fault_drop
  | Fault_deliver of { extra_delay_ms : float; payload : string option }
      (** deliver after the normal delay plus [extra_delay_ms], with
          [payload] substituted when provided (datagram transits only) *)

type fault_oracle =
  now:float ->
  src:Sim.Topology.host ->
  dst:Sim.Topology.host ->
  payload:string option ->
  fault_verdict

val set_fault_oracle : t -> fault_oracle -> unit
val clear_fault_oracle : t -> unit

(** [transit t ~src ~dst ~bytes k] schedules [k] after the simulated
    network delay from [src] to [dst]. When the hop leaves the host,
    [k] is dropped (never run) with the configured drop probability. *)
val transit : t -> src:stack -> dst:stack -> bytes:int -> (unit -> unit) -> unit

(** Like {!transit} for a datagram whose payload the fault oracle may
    corrupt: [k] receives the payload that actually arrives. *)
val transit_msg :
  t -> src:stack -> dst:stack -> bytes:int -> string -> (string -> unit) -> unit

(** A FIFO channel clock for reliable, ordered transit (one per
    direction of a TCP connection). *)
type channel

val channel : unit -> channel

(** Like {!transit} but never drops (TCP retransmission is folded into
    the delay model) and preserves order within the [channel]: an event
    never overtakes an earlier event on the same channel even when it
    is smaller. *)
val transit_ordered :
  t -> src:stack -> dst:stack -> bytes:int -> channel -> (unit -> unit) -> unit

(** {1 Counters for observability} *)

(** This network's own [transport.netstack.packets_sent],
    [transport.netstack.packets_dropped],
    [transport.netstack.packets_received] (arrival events fired:
    delivery, not send) and [transport.netstack.bytes_sent]. Once the
    engine is quiescent, [packets_sent = packets_received +
    packets_dropped]. *)
val metrics : t -> Obs.Metrics.scope

(** {1 Protocol plumbing}

    Used by the {!Udp} and {!Tcp} modules; applications should not
    call these directly. Registration raises [Invalid_argument] when
    the port is taken. *)

type udp_handler = src:Address.t -> string -> unit

(** An in-order, reliable event stream — one direction of an
    established TCP connection. *)
type tcp_event = Tcp_data of string | Tcp_fin

type conn_half = { deliver : tcp_event -> unit }

type syn_reply = Accepted of conn_half | Refused

(** What a listening port does with an arriving connection request:
    [client] is where to deliver server->client events; call [reply]
    exactly once. *)
type tcp_listener_hook = {
  on_syn : src:Address.t -> client:conn_half -> reply:(syn_reply -> unit) -> unit;
}

val udp_register : stack -> port:int -> udp_handler -> unit
val udp_unregister : stack -> port:int -> unit
val udp_handler : stack -> port:int -> udp_handler option
val tcp_register : stack -> port:int -> tcp_listener_hook -> unit
val tcp_unregister : stack -> port:int -> unit
val tcp_hook : stack -> port:int -> tcp_listener_hook option

(** Ephemeral port allocation (from 32768), per stack per protocol. *)
val alloc_udp_port : stack -> int

val alloc_tcp_port : stack -> int
