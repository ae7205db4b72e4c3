(** The DNS client exchange: every request this library and the HNS
    send to a name server — a query, an update, an SOA probe, a NOTIFY,
    a zone transfer — goes through {!call}.

    The paper's HNS reaches BIND through one "HRPC interface to BIND
    ... built on top of our Raw HRPC protocol suite". Here that
    interface is {!call} over a {!transport} the caller chooses, so
    each caller keeps its own timeouts, attempts, counters and error
    type, while the message id, the codec and the TC rule live in one
    place. *)

(** Sends one encoded request and returns the reply's bytes: for
    example [Rpc.Rawrpc.call stack ~dst ~timeout ~attempts] (UDP),
    {!tcp}, or [Hrpc.Client.call_raw] for a caller that pays HRPC's
    costs and counts. *)
type transport = string -> (string, Rpc.Control.error) result

(** [call send build] takes the next message id (one counter, 16 bits,
    for every request of the process), encodes [build id], sends it
    over [send] and decodes the reply. A reply that does not decode is
    [Protocol_error]. *)
val call : transport -> (int -> Msg.t) -> (Msg.t, Rpc.Control.error) result

(** [tcp stack ~dst ~timeout] is a transport of one request on a fresh
    TCP connection ({!Rpc.Rawrpc.call_tcp}; the handshake bounded by
    {!Transport.Tcp.default_connect_timeout_ms}), taking the first
    reply within [timeout] ms. *)
val tcp :
  Transport.Netstack.stack -> dst:Transport.Address.t -> timeout:float -> transport

(** [call_tc stack ~dst ~tcp_timeout build] is [call] over UDP to [dst]
    ([Rpc.Rawrpc.call]'s 1000 ms and 3 attempts), except that a reply
    with TC set sends the same request again over {!tcp} with
    [tcp_timeout], whose reply is the answer — what a resolver does
    with a truncated answer. *)
val call_tc :
  Transport.Netstack.stack ->
  dst:Transport.Address.t ->
  tcp_timeout:float ->
  (int -> Msg.t) ->
  (Msg.t, Rpc.Control.error) result

(** [soa_serial send zone] asks for [zone]'s SOA and returns the serial
    of the first SOA among the answers; [None] when the exchange fails
    or the reply carries none. *)
val soa_serial : transport -> Name.t -> int32 option
