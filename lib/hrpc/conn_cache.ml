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
let rec exchange t addr ~matches payload ~retry_on_dead =
  match obtain t addr with
  | Error e -> Error e
  | Ok (conn, reused) -> (
      let dead () =
        drop t addr conn;
        if reused && retry_on_dead then
          exchange t addr ~matches payload ~retry_on_dead:false
        else Error Rpc.Control.Refused
      in
      match Transport.Tcp.send conn payload with
      | exception Transport.Tcp.Connection_closed -> dead ()
      | () ->
          let t0 = Sim.Engine.time () in
          let timed_out () =
            Error
              (Rpc.Control.Timeout { elapsed_ms = Sim.Engine.time () -. t0 })
          in
          let deadline =
            t0 +. Rpc.Control.default_policy.Rpc.Control.attempt_timeout_ms
          in
          let rec wait () =
            let remaining = deadline -. Sim.Engine.time () in
            if remaining <= 0.0 then timed_out ()
            else
              match Transport.Tcp.recv_timeout conn remaining with
              | exception Transport.Tcp.Connection_closed -> dead ()
              | None -> timed_out ()
              | Some resp -> if matches resp then Ok resp else wait ()
          in
          wait ())

let call t (b : Binding.t) ~procnum ~sign v =
  match b.suite.Component.transport with
  | Component.T_udp -> Client.call t.stack b ~procnum ~sign v
  | Component.T_tcp -> (
      Wire.Idl.check ~what:"Conn_cache.call args" sign.Wire.Idl.arg v;
      let rep = b.suite.Component.data_rep in
      let body = Wire.Data_rep.to_string rep sign.Wire.Idl.arg v in
      let decode_res body =
        match Wire.Data_rep.of_string rep sign.Wire.Idl.res body with
        | exception _ -> Error (Rpc.Control.Protocol_error "undecodable results")
        | res -> Ok res
      in
      match b.suite.Component.control with
      | Component.C_raw -> (
          match
            exchange t b.server ~matches:(fun _ -> true) body ~retry_on_dead:true
          with
          | Error _ as e -> e
          | Ok resp -> decode_res resp)
      | Component.C_sunrpc -> (
          let xid = Rpc.Control.next_xid () in
          let payload =
            Rpc.Sunrpc_wire.(
              encode
                (Call
                   {
                     xid;
                     prog = Int32.of_int b.prog;
                     vers = Int32.of_int b.vers;
                     procnum = Int32.of_int procnum;
                     body;
                   }))
          in
          let matches resp =
            match Rpc.Sunrpc_wire.decode resp with
            | Rpc.Sunrpc_wire.Reply r -> r.rxid = xid
            | Rpc.Sunrpc_wire.Call _ | (exception Rpc.Sunrpc_wire.Bad_message _) ->
                false
          in
          match exchange t b.server ~matches payload ~retry_on_dead:true with
          | Error _ as e -> e
          | Ok resp -> (
              match Rpc.Sunrpc_wire.decode resp with
              | Rpc.Sunrpc_wire.Reply r -> (
                  match Rpc.Sunrpc_wire.reply_to_result r.rbody with
                  | Error _ as e -> e
                  | Ok body -> decode_res body)
              | Rpc.Sunrpc_wire.Call _ ->
                  Error (Rpc.Control.Protocol_error "call in reply position")))
      | Component.C_courier -> (
          let transaction = Int32.to_int (Rpc.Control.next_xid ()) land 0xFFFF in
          let payload =
            Rpc.Courier_wire.(
              encode
                (Call
                   { transaction; prog = Int32.of_int b.prog; vers = b.vers; procnum; body }))
          in
          let matches resp =
            match Rpc.Courier_wire.decode resp with
            | Rpc.Courier_wire.Return r -> r.transaction = transaction
            | Rpc.Courier_wire.Abort a -> a.transaction = transaction
            | Rpc.Courier_wire.Reject r -> r.transaction = transaction
            | Rpc.Courier_wire.Call _ | (exception Rpc.Courier_wire.Bad_message _) ->
                false
          in
          match exchange t b.server ~matches payload ~retry_on_dead:true with
          | Error _ as e -> e
          | Ok resp -> (
              match Rpc.Courier_wire.decode resp with
              | Rpc.Courier_wire.Return r -> decode_res r.body
              | Rpc.Courier_wire.Abort _ -> Error (Rpc.Control.Protocol_error "remote abort")
              | Rpc.Courier_wire.Reject r -> Error (Rpc.Courier_wire.reject_to_error r.code)
              | Rpc.Courier_wire.Call _ ->
                  Error (Rpc.Control.Protocol_error "call in reply position"))))

let live t = Addr_map.cardinal t.conns
let metrics t = Obs.Metrics.scope [ t.reuses ]

let clear t =
  Addr_map.iter (fun _ conn -> Transport.Tcp.close conn) t.conns;
  t.conns <- Addr_map.empty;
  Obs.Metrics.zero t.reuses
