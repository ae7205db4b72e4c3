open Transport

type t = {
  stack : Netstack.stack;
  suite : Component.protocol_suite;
  port : int;
  service_overhead_ms : float;
  prog : int;
  vers : int;
  concurrent : bool;
  procs : Rpc.Control.procedures;
  dispatch : string -> string option;
  mutable stop : (unit -> unit) option;
}

(* The server half of cross-hop propagation: run each call under an
   hrpc_serve span that adopts the caller's stamped span as a remote
   parent, so the whole exchange renders as one tree even though
   client and server are different simulated processes. *)
let serve ~port ~trace ~parent ~procnum run =
  let span = Obs.Span.open_remote_span ~trace ~parent "hrpc_serve" in
  if span <> 0 then begin
    Obs.Span.add_attr "proc" (string_of_int procnum);
    Obs.Span.add_attr "port" (string_of_int port)
  end;
  Fun.protect ~finally:(fun () -> Obs.Span.close_span span) run

let create stack ~suite ?port ?(service_overhead_ms = 0.0) ?(concurrent = false)
    ~prog ~vers () =
  let dispatch =
    match suite.Component.control with
    | Component.C_raw ->
        invalid_arg "Hrpc.Server.create: raw control is for native message servers"
    | Component.C_sunrpc -> Rpc.Sunrpc.dispatch
    | Component.C_courier -> Rpc.Courier_rpc.dispatch
  in
  let port =
    match port with
    | Some p -> p
    | None -> (
        match suite.Component.transport with
        | Component.T_udp -> Netstack.alloc_udp_port stack
        | Component.T_tcp -> Netstack.alloc_tcp_port stack)
  in
  let procs = Rpc.Control.procedures () in
  {
    stack;
    suite;
    port;
    service_overhead_ms;
    prog;
    vers;
    concurrent;
    procs;
    dispatch = dispatch procs ~rep:suite.Component.data_rep ~serve:(serve ~port);
    stop = None;
  }

let register t = Rpc.Control.register t.procs ~prog:t.prog ~vers:t.vers

let binding t =
  Binding.make ~suite:t.suite
    ~server:(Address.make (Netstack.ip t.stack) t.port)
    ~prog:t.prog ~vers:t.vers

let start t =
  if t.stop <> None then invalid_arg "Hrpc.Server.start: already running";
  let name = Printf.sprintf "hrpc-srv:%d/%s" t.port (Component.suite_name t.suite) in
  t.stop <-
    Some
      (match t.suite.Component.transport with
      | Component.T_udp ->
          Rpc.Rawrpc.serve_udp (Udp.bind t.stack ~port:t.port) ~name
            ~service_overhead_ms:t.service_overhead_ms ~concurrent:t.concurrent
            (fun ~src:_ payload -> t.dispatch payload)
      | Component.T_tcp ->
          Rpc.Rawrpc.serve_tcp (Tcp.listen t.stack ~port:t.port) ~name
            ~service_overhead_ms:t.service_overhead_ms t.dispatch)

let stop t =
  Option.iter (fun stop -> stop ()) t.stop;
  t.stop <- None
