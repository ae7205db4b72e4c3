open Transport

type proc = { sign : Wire.Idl.signature; impl : Wire.Value.t -> Wire.Value.t }

type t = {
  stack : Netstack.stack;
  suite : Component.protocol_suite;
  port : int;
  service_overhead_ms : float;
  prog : int;
  vers : int;
  concurrent : bool;
  procs : (int, proc) Hashtbl.t;
  mutable udp_sock : Udp.socket option;
  mutable listener : Tcp.listener option;
  mutable running : bool;
}

let create stack ~suite ?port ?(service_overhead_ms = 0.0) ?(concurrent = false)
    ~prog ~vers () =
  if suite.Component.control = Component.C_raw then
    invalid_arg "Hrpc.Server.create: raw control is for native message servers";
  let port =
    match port with
    | Some p -> p
    | None -> (
        match suite.Component.transport with
        | Component.T_udp -> Netstack.alloc_udp_port stack
        | Component.T_tcp -> Netstack.alloc_tcp_port stack)
  in
  {
    stack;
    suite;
    port;
    service_overhead_ms;
    prog;
    vers;
    concurrent;
    procs = Hashtbl.create 16;
    udp_sock = None;
    listener = None;
    running = false;
  }

let register t ~procnum ~sign impl =
  if Hashtbl.mem t.procs procnum then
    invalid_arg (Printf.sprintf "Hrpc.Server.register: duplicate procedure %d" procnum);
  Hashtbl.replace t.procs procnum { sign; impl }

let binding t =
  Binding.make ~suite:t.suite
    ~server:(Address.make (Netstack.ip t.stack) t.port)
    ~prog:t.prog ~vers:t.vers

(* Process one control message; [None] means drop silently. *)
let dispatch t payload : string option =
  let rep = t.suite.Component.data_rep in
  let run (proc : proc) procnum body =
    (* The server half of cross-hop propagation: adopt the caller's
       stamped span as a remote parent, so the whole exchange renders
       as one tree even though client and server are different
       simulated processes. *)
    let trace, parent, body = Trace_header.strip body in
    match Wire.Data_rep.of_string rep proc.sign.Wire.Idl.arg body with
    | exception _ -> Error `Garbage
    | arg ->
        let span = Obs.Span.open_remote_span ~trace ~parent "hrpc_serve" in
        if span <> 0 then begin
          Obs.Span.add_attr "proc" (string_of_int procnum);
          Obs.Span.add_attr "port" (string_of_int t.port)
        end;
        Fun.protect
          ~finally:(fun () -> Obs.Span.close_span span)
          (fun () ->
            (* A crashing procedure must not take the server process
               (and the whole simulation) down with it. *)
            match proc.impl arg with
            | res -> Ok (Wire.Data_rep.to_string rep proc.sign.Wire.Idl.res res)
            | exception Failure m -> Error (`Crash m)
            | exception Invalid_argument m -> Error (`Crash m))
  in
  match t.suite.Component.control with
  | Component.C_raw -> None
  | Component.C_sunrpc -> (
      match Rpc.Sunrpc_wire.decode payload with
      | exception Rpc.Sunrpc_wire.Bad_message _ -> None
      | Rpc.Sunrpc_wire.Reply _ -> None
      | Rpc.Sunrpc_wire.Call c ->
          let rbody =
            if Int32.to_int c.prog <> t.prog || Int32.to_int c.vers <> t.vers then
              Rpc.Sunrpc_wire.Prog_unavail
            else
              match Hashtbl.find_opt t.procs (Int32.to_int c.procnum) with
              | None ->
                  if c.procnum = 0l then Rpc.Sunrpc_wire.Success ""
                  else Rpc.Sunrpc_wire.Proc_unavail
              | Some proc -> (
                  match run proc (Int32.to_int c.procnum) c.body with
                  | Ok body -> Rpc.Sunrpc_wire.Success body
                  | Error `Garbage -> Rpc.Sunrpc_wire.Garbage_args
                  | Error (`Crash _) -> Rpc.Sunrpc_wire.System_err)
          in
          Some (Rpc.Sunrpc_wire.(encode (Reply { rxid = c.xid; rbody }))))
  | Component.C_courier -> (
      match Rpc.Courier_wire.decode payload with
      | exception Rpc.Courier_wire.Bad_message _ -> None
      | Rpc.Courier_wire.Return _ | Rpc.Courier_wire.Abort _ | Rpc.Courier_wire.Reject _
        ->
          None
      | Rpc.Courier_wire.Call c ->
          let reply =
            if Int32.to_int c.prog <> t.prog then
              Rpc.Courier_wire.Reject
                { transaction = c.transaction; code = Rpc.Courier_wire.No_such_program }
            else if c.vers <> t.vers then
              Rpc.Courier_wire.Reject
                { transaction = c.transaction; code = Rpc.Courier_wire.No_such_version }
            else
              match Hashtbl.find_opt t.procs c.procnum with
              | None ->
                  Rpc.Courier_wire.Reject
                    {
                      transaction = c.transaction;
                      code = Rpc.Courier_wire.No_such_procedure;
                    }
              | Some proc -> (
                  match run proc c.procnum c.body with
                  | Ok body -> Rpc.Courier_wire.Return { transaction = c.transaction; body }
                  | Error `Garbage ->
                      Rpc.Courier_wire.Reject
                        {
                          transaction = c.transaction;
                          code = Rpc.Courier_wire.Invalid_arguments;
                        }
                  | Error (`Crash m) ->
                      Rpc.Courier_wire.Abort
                        {
                          transaction = c.transaction;
                          error = 1;
                          body = Wire.Courier.to_string Wire.Idl.T_string (Wire.Value.Str m);
                        })
          in
          Some (Rpc.Courier_wire.encode reply))

let start t =
  if t.running then invalid_arg "Hrpc.Server.start: already running";
  t.running <- true;
  let name = Printf.sprintf "hrpc-srv:%d/%s" t.port (Component.suite_name t.suite) in
  match t.suite.Component.transport with
  | Component.T_udp ->
      let sock = Udp.bind t.stack ~port:t.port in
      t.udp_sock <- Some sock;
      Sim.Engine.spawn_child ~name (fun () ->
          while t.running do
            let src, payload = Udp.recv sock in
            let serve () =
              if t.service_overhead_ms > 0.0 then
                Sim.Engine.sleep t.service_overhead_ms;
              match dispatch t payload with
              | Some reply -> Udp.sendto sock ~dst:src reply
              | None -> ()
            in
            (* A concurrent server hands each datagram to its own
               fiber so slow procedures (e.g. an agent's upstream
               FindNSM) never serialize unrelated requests — and so
               duplicate in-flight requests can actually meet in the
               procedure's coalescing table. *)
            if t.concurrent then Sim.Engine.spawn_child ~name:(name ^ ":req") serve
            else serve ()
          done)
  | Component.T_tcp ->
      let listener = Tcp.listen t.stack ~port:t.port in
      t.listener <- Some listener;
      Sim.Engine.spawn_child ~name (fun () ->
          while t.running do
            let conn = Tcp.accept listener in
            Sim.Engine.spawn_child ~name:(name ^ ":conn") (fun () ->
                let rec loop () =
                  match Tcp.recv conn with
                  | exception Tcp.Connection_closed -> ()
                  | payload ->
                      (if t.service_overhead_ms > 0.0 then
                         Sim.Engine.sleep t.service_overhead_ms);
                      (match dispatch t payload with
                      | Some reply -> Tcp.send conn reply
                      | None -> ());
                      loop ()
                in
                loop ();
                Tcp.close conn)
          done)

let stop t =
  t.running <- false;
  (match t.udp_sock with Some s -> Udp.close s | None -> ());
  (match t.listener with Some l -> Tcp.close_listener l | None -> ());
  t.udp_sock <- None;
  t.listener <- None
