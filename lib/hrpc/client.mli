(** The HRPC client call engine.

    [call] is the run-time half of a client stub: given a binding it
    selects the data representation, transport, and control protocol
    the server speaks and performs one complete remote call. The
    components were separated at stub-generation time and are
    recombined here, at call time — the emulation mechanism that lets
    one linked client speak Sun RPC, Courier, or a raw message
    protocol depending on what it is bound to.

    Retries are governed by a {!Rpc.Control.retry_policy}: UDP
    transports retransmit with escalating per-attempt deadlines and a
    jittered exponential backoff pause between attempts (recorded in
    the [hrpc.client.backoff_ms] histogram); TCP transports make a single
    attempt bounded by the attempt timeout, including connection
    establishment. Exhausting the budget yields
    [Error (Timeout { elapsed_ms })] carrying the cumulative virtual
    time spent across every attempt and pause. *)

(** [?policy] supplies the full retry policy (default
    {!Rpc.Control.default_policy}). *)
val call :
  Transport.Netstack.stack ->
  Binding.t ->
  procnum:int ->
  sign:Wire.Idl.signature ->
  ?policy:Rpc.Control.retry_policy ->
  Wire.Value.t ->
  (Wire.Value.t, Rpc.Control.error) result

(** [call_raw] sends pre-encoded bytes with the binding's control and
    transport components, skipping value marshalling — used by the
    HNS's HRPC interface to BIND, whose payloads are native DNS
    messages. *)
val call_raw :
  Transport.Netstack.stack ->
  Binding.t ->
  ?policy:Rpc.Control.retry_policy ->
  string ->
  (string, Rpc.Control.error) result
