(** Courier RPC over simulated TCP — the Xerox world's RPC system.

    Courier runs over a reliable byte stream (historically SPP); calls
    on one session are sequential, and a client keeps its session open
    across calls, so after the first call no per-call connection cost
    is paid. Bodies are Courier-representation values.

    Remote errors raised by server procedures travel as Courier ABORT
    messages and surface as [Error (Protocol_error "remote abort: <message>")].
    A call to a program the server exports at other versions only is
    rejected with [No_such_version].

    {!frame} and {!dispatch} are the Courier control protocol itself;
    HRPC runs them for a Courier binding over any transport and data
    representation. *)

(** [frame ~transaction ~prog ~vers ~procnum args] is a CALL message
    carrying the marshalled [args], and the matcher that takes the
    RETURN, ABORT or REJECT for [transaction]. A message that does not
    decode is a [Protocol_error]. *)
val frame :
  transaction:int ->
  prog:int ->
  vers:int ->
  procnum:int ->
  string ->
  string * Rawrpc.matcher

(** [dispatch procs ~rep ~serve payload] answers one CALL message from
    [procs] ({!Control.invoke}); [None] for anything else. *)
val dispatch :
  Control.procedures ->
  rep:Wire.Data_rep.t ->
  serve:Control.serve ->
  string ->
  string option

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
