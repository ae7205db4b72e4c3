module Addr_map = Map.Make (Transport.Address)

type t = {
  stack : Transport.Netstack.stack;
  mutable conns : Transport.Tcp.conn Addr_map.t;
  reuses : Obs.Metrics.counter;
}

let m_reuses = Obs.Metrics.counter "hrpc.conn_cache.reuses"
let m_connects = Obs.Metrics.counter "hrpc.conn_cache.connects"

let create stack =
  { stack; conns = Addr_map.empty; reuses = Obs.Metrics.owned m_reuses }

let drop t addr conn =
  Transport.Tcp.close conn;
  t.conns <- Addr_map.remove addr t.conns

(* Get a usable connection, saying whether it was reused. *)
let obtain t addr =
  match Addr_map.find_opt addr t.conns with
  | Some conn ->
      Obs.Metrics.incr t.reuses;
      Ok (conn, true)
  | None -> (
      match Transport.Tcp.connect t.stack addr with
      | exception Transport.Tcp.Connection_refused _ -> Error Rpc.Control.Refused
      | conn ->
          Obs.Metrics.incr m_connects;
          t.conns <- Addr_map.add addr conn t.conns;
          Ok (conn, false))

(* One request/response on a cached connection, waiting up to the
   default policy's attempt timeout for the reply; on a dead reused
   connection, reconnect once and retry. *)
let rec exchange t addr ~retry_on_dead (payload, accept) =
  match obtain t addr with
  | Error e -> Error e
  | Ok (conn, reused) -> (
      let dead () =
        drop t addr conn;
        if reused && retry_on_dead then
          exchange t addr ~retry_on_dead:false (payload, accept)
        else Error Rpc.Control.Refused
      in
      match Transport.Tcp.send conn payload with
      | exception Transport.Tcp.Connection_closed -> dead ()
      | () -> (
          match
            Rpc.Rawrpc.await conn ~t0:(Sim.Engine.time ())
              ~timeout:Rpc.Control.default_policy.Rpc.Control.attempt_timeout_ms ~accept
          with
          (* No reply carries [Refused]: the peer closed the connection. *)
          | Error Rpc.Control.Refused -> dead ()
          | result -> result))

let call t (b : Binding.t) ~procnum ~sign v =
  match b.suite.Component.transport with
  | Component.T_udp -> Client.call t.stack b ~procnum ~sign v
  | Component.T_tcp ->
      Client.call_on (exchange t b.server ~retry_on_dead:true) b ~procnum ~sign v

let live t = Addr_map.cardinal t.conns
let metrics t = Obs.Metrics.scope [ t.reuses ]

let clear t =
  Addr_map.iter (fun _ conn -> Transport.Tcp.close conn) t.conns;
  t.conns <- Addr_map.empty;
  Obs.Metrics.zero t.reuses
