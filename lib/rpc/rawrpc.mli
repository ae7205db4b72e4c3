(** The Raw HRPC protocol suite: request/response message passing with
    a program's {e native} wire format — and the exchange, reply wait,
    one-request TCP call and service loops that Sun RPC, Courier, HRPC
    and the DNS client run too.

    Section 3 of the paper: the HNS talks to BIND not through the
    standard BIND library but through "an HRPC interface to BIND ...
    built on top of our Raw HRPC protocol suite, which allows HRPC
    clients to make calls to any message passing program that conforms
    with the basic RPC paradigm of make a request and wait for a
    response".

    Accordingly this module adds {e no} framing of its own: the payload
    is exactly the server's native message (a DNS packet, for BIND).
    Response matching uses a fresh ephemeral UDP socket per exchange,
    the way a resolver does; retransmission handles simulated loss.
    {!Sunrpc} and {!Courier_rpc} frame their messages and pass a
    {!matcher} for the reply. *)

(** Takes the reply a call waits for: [Some] its outcome, [None] for
    any other message, which the wait skips. *)
type matcher = string -> (string, Control.error) result option

(** [exchange stack ~dst ~policy ~on_retry ~accept payload] sends
    [payload] and returns the first reply [accept] takes, retransmitting
    under [policy]. Before a retry it calls [on_retry pause], then
    sleeps the pause: {!Control.backoff_schedule} seeded with the
    caller's address and the exchange's start time, so a simulation
    replays byte for byte yet concurrent callers do not retry in
    lockstep. [Timeout] carries the time since the exchange began. *)
val exchange :
  Transport.Netstack.stack ->
  dst:Transport.Address.t ->
  policy:Control.retry_policy ->
  on_retry:(float -> unit) ->
  accept:matcher ->
  string ->
  (string, Control.error) result

(** [call stack ~dst payload] is {!exchange} under
    {!Control.native_policy}, taking the first response. Defaults:
    1000 ms timeout, 3 attempts. *)
val call :
  Transport.Netstack.stack ->
  dst:Transport.Address.t ->
  ?timeout:float ->
  ?attempts:int ->
  string ->
  (string, Control.error) result

(** [await conn ~t0 ~timeout ~accept] waits up to [timeout] ms for a
    reply on [conn] that [accept] takes. [Timeout] carries the time
    since [t0], when the call began; a closed connection is
    [Refused]. *)
val await :
  Transport.Tcp.conn ->
  t0:float ->
  timeout:float ->
  accept:matcher ->
  (string, Control.error) result

(** [call_tcp stack ~dst ~connect_timeout_ms ~timeout ~accept payload]
    is one request on a fresh connection: connect (the handshake
    bounded by [connect_timeout_ms]), send, {!await} the reply for up
    to [timeout] ms, close. A refused or unfinished handshake is
    [Refused], as is a connection the peer closes before replying;
    [Timeout] carries the time since the call began. *)
val call_tcp :
  Transport.Netstack.stack ->
  dst:Transport.Address.t ->
  connect_timeout_ms:float ->
  timeout:float ->
  accept:matcher ->
  string ->
  (string, Control.error) result

(** [serve_udp sock ~name ~service_overhead_ms ~concurrent handler]
    spawns a service loop: [handler ~src request] returns the response
    payload, or [None] to stay silent (letting the client time out), as
    does a handler that raises [Failure] or [Invalid_argument]. Each
    request is charged [service_overhead_ms]; with [concurrent] each
    runs on a fiber of its own. Returns a stop function, which closes
    the socket; a handler still running then has its reply dropped, so
    its client times out. *)
val serve_udp :
  Transport.Udp.socket ->
  name:string ->
  service_overhead_ms:float ->
  concurrent:bool ->
  (src:Transport.Address.t -> string -> string option) ->
  unit -> unit

(** [serve_tcp listener ~name ~service_overhead_ms handler] spawns an
    accept loop with a fiber per connection, which answers its requests
    in order. Returns a stop function, which closes the listener. *)
val serve_tcp :
  Transport.Tcp.listener ->
  name:string ->
  service_overhead_ms:float ->
  (string -> string option) ->
  unit -> unit
