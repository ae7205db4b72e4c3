open Transport

let frame ~prog ~vers ~procnum body =
  let xid = Control.next_xid () in
  let call =
    Sunrpc_wire.(
      encode
        (Call
           {
             xid;
             prog = Int32.of_int prog;
             vers = Int32.of_int vers;
             procnum = Int32.of_int procnum;
             body;
           }))
  in
  let accept resp =
    match Sunrpc_wire.decode resp with
    | Sunrpc_wire.Reply r when r.rxid = xid -> Some (Sunrpc_wire.reply_to_result r.rbody)
    | Sunrpc_wire.Reply _ | Sunrpc_wire.Call _ | (exception Sunrpc_wire.Bad_message _) -> None
  in
  (call, accept)

let dispatch procs ~rep ~serve payload =
  match Sunrpc_wire.decode payload with
  | exception Sunrpc_wire.Bad_message _ -> None (* drop garbage *)
  | Sunrpc_wire.Reply _ -> None (* stray reply: drop *)
  | Sunrpc_wire.Call c ->
      let procnum = Int32.to_int c.procnum in
      let rbody =
        match
          Control.invoke procs ~rep ~serve ~prog:(Int32.to_int c.prog)
            ~vers:(Int32.to_int c.vers) ~procnum c.body
        with
        | Ok body -> Sunrpc_wire.Success body
        | Error (Control.No_program | Control.No_version) -> Sunrpc_wire.Prog_unavail
        | Error Control.No_procedure ->
            (* NULL procedure: implicitly present on every program. *)
            if procnum = 0 then Sunrpc_wire.Success "" else Sunrpc_wire.Proc_unavail
        | Error Control.Bad_arguments -> Sunrpc_wire.Garbage_args
        | Error (Control.Crashed _) -> Sunrpc_wire.System_err
      in
      Some (Sunrpc_wire.encode (Reply { rxid = c.xid; rbody }))

type server = {
  sock : Udp.socket;
  service_overhead_ms : float;
  procs : Control.procedures;
  mutable stop : (unit -> unit) option;
}

let create stack ?port ?(service_overhead_ms = 0.0) () =
  let sock =
    match port with Some p -> Udp.bind stack ~port:p | None -> Udp.bind_any stack
  in
  { sock; service_overhead_ms; procs = Control.procedures (); stop = None }

let port server = (Udp.local_addr server.sock).Address.port
let addr server = Udp.local_addr server.sock
let register server = Control.register server.procs

let start server =
  if server.stop <> None then invalid_arg "Sunrpc.start: already running";
  let name = Printf.sprintf "sunrpc:%d" (port server) in
  server.stop <-
    Some
      (Rawrpc.serve_udp server.sock ~name ~service_overhead_ms:server.service_overhead_ms
         ~concurrent:false (fun ~src:_ payload ->
           dispatch server.procs ~rep:Wire.Data_rep.Xdr ~serve:Control.untraced payload))

let stop server = Option.iter (fun stop -> stop ()) server.stop

let call stack ~dst ~prog ~vers ~procnum ~sign ?(timeout = 1000.0) ?(attempts = 3) v =
  Wire.Idl.check ~what:"Sunrpc.call args" sign.Wire.Idl.arg v;
  let payload, accept = frame ~prog ~vers ~procnum (Wire.Xdr.to_string sign.Wire.Idl.arg v) in
  Control.decode_results Wire.Data_rep.Xdr sign
    (Rawrpc.exchange stack ~dst
       ~policy:(Control.native_policy ~attempts ~timeout)
       ~on_retry:ignore ~accept payload)
