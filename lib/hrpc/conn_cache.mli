(** Connection reuse for TCP-transport bindings.

    Courier sessions hold their transport open across calls; an HRPC
    client that imports a Courier binding and calls it repeatedly
    should not pay the SYN round trip every time. A [t] keeps one live
    connection per (server address) and transparently reconnects when
    the peer has closed it. UDP-transport bindings pass straight
    through to {!Client.call}.

    A TCP call is {!Client.call_on} over a cached connection, so it is
    framed, stamped, counted and traced exactly like any other HRPC
    call; only the connection it runs on differs. *)

type t

val create : Transport.Netstack.stack -> t

(** Like {!Client.call} under {!Rpc.Control.default_policy}, but TCP
    exchanges reuse a cached connection and make one attempt, waiting
    that policy's attempt timeout (1000 ms) for the reply. A reused
    connection the peer has closed is dropped and the call sent once
    more on a fresh one. *)
val call :
  t ->
  Binding.t ->
  procnum:int ->
  sign:Wire.Idl.signature ->
  Wire.Value.t ->
  (Wire.Value.t, Rpc.Control.error) result

(** Live connections held. *)
val live : t -> int

(** This cache's own [hrpc.conn_cache.reuses]: calls that reused an
    existing connection. *)
val metrics : t -> Obs.Metrics.scope

(** Close everything and zero the reuse count. *)
val clear : t -> unit
