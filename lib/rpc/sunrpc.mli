(** Sun RPC (RFC 1057) over simulated UDP — servers, clients, and the
    program/procedure registry.

    One of the two "insular" RPC systems in the HCS testbed. Procedure
    bodies receive and return {!Wire.Value.t}; argument/result layout
    is fixed by an {!Wire.Idl.signature} and travels as XDR. Procedure
    0 of every registered program is the NULL procedure, answered
    automatically. *)

type server

(** [create stack ?port ?service_overhead_ms ()] makes a server.
    [service_overhead_ms] is virtual CPU charged per handled call —
    how the simulation accounts the per-system RPC processing cost the
    paper reports as "22–38 msec depending on the RPC system". *)
val create :
  Transport.Netstack.stack -> ?port:int -> ?service_overhead_ms:float -> unit -> server

val port : server -> int
val addr : server -> Transport.Address.t

(** Register a procedure implementation. The implementation runs inside
    a simulated process and may sleep to model work.
    Raises [Invalid_argument] on duplicate (prog, vers, procnum). *)
val register :
  server ->
  prog:int ->
  vers:int ->
  procnum:int ->
  sign:Wire.Idl.signature ->
  (Wire.Value.t -> Wire.Value.t) ->
  unit

(** Spawn the service loop (one request at a time, like the 1980s
    daemons being modelled). *)
val start : server -> unit

val stop : server -> unit

(** [call stack ~dst ~prog ~vers ~procnum ~sign v] performs a complete
    remote call: XDR-encode, send, retransmit on loss, decode.
    Defaults: 1000 ms timeout, 3 attempts, doubling backoff. *)
val call :
  Transport.Netstack.stack ->
  dst:Transport.Address.t ->
  prog:int ->
  vers:int ->
  procnum:int ->
  sign:Wire.Idl.signature ->
  ?timeout:float ->
  ?attempts:int ->
  Wire.Value.t ->
  (Wire.Value.t, Control.error) result
