(** Courier RPC over simulated TCP — the Xerox world's RPC system.

    Courier runs over a reliable byte stream (historically SPP); calls
    on one session are sequential, and a client keeps its session open
    across calls, so after the first call no per-call connection cost
    is paid. Bodies are Courier-representation values.

    Remote errors raised by server procedures travel as Courier ABORT
    messages and surface as [Error (Protocol_error _)]. *)

type server

(** The server charges no service time of its own: a call costs only
    its network round trip and the procedure's own work. *)
val create : Transport.Netstack.stack -> ?port:int -> unit -> server

val addr : server -> Transport.Address.t

val register :
  server ->
  prog:int ->
  vers:int ->
  procnum:int ->
  sign:Wire.Idl.signature ->
  (Wire.Value.t -> Wire.Value.t) ->
  unit

val start : server -> unit

(** A client session (one TCP connection). *)
type session

(** Connect; blocks for the handshake round trip. Raises
    [Tcp.Connection_refused] when nothing listens. *)
val connect : Transport.Netstack.stack -> Transport.Address.t -> session

(** Waits 2000 ms for the reply before failing with [Timeout]. *)
val call :
  session ->
  prog:int ->
  vers:int ->
  procnum:int ->
  sign:Wire.Idl.signature ->
  Wire.Value.t ->
  (Wire.Value.t, Control.error) result

val close : session -> unit

(** One-shot convenience: connect, {!call} once, close. *)
val call_once :
  Transport.Netstack.stack ->
  dst:Transport.Address.t ->
  prog:int ->
  vers:int ->
  procnum:int ->
  sign:Wire.Idl.signature ->
  Wire.Value.t ->
  (Wire.Value.t, Control.error) result
