open Transport

type proc = { sign : Wire.Idl.signature; impl : Wire.Value.t -> Wire.Value.t }

type server = {
  sock : Udp.socket;
  service_overhead_ms : float;
  procs : (int32 * int32 * int32, proc) Hashtbl.t;
  programs : (int32 * int32, unit) Hashtbl.t;
  mutable running : bool;
}

let create stack ?port ?(service_overhead_ms = 0.0) () =
  let sock =
    match port with Some p -> Udp.bind stack ~port:p | None -> Udp.bind_any stack
  in
  {
    sock;
    service_overhead_ms;
    procs = Hashtbl.create 16;
    programs = Hashtbl.create 4;
    running = false;
  }

let port server = (Udp.local_addr server.sock).Address.port
let addr server = Udp.local_addr server.sock

let register server ~prog ~vers ~procnum ~sign impl =
  let key = (Int32.of_int prog, Int32.of_int vers, Int32.of_int procnum) in
  if Hashtbl.mem server.procs key then
    invalid_arg
      (Printf.sprintf "Sunrpc.register: duplicate procedure %d/%d/%d" prog vers procnum);
  Hashtbl.replace server.procs key { sign; impl };
  Hashtbl.replace server.programs (Int32.of_int prog, Int32.of_int vers) ()

let null_signature = Wire.Idl.signature ~arg:Wire.Idl.T_void ~res:Wire.Idl.T_void

let handle server (call : Sunrpc_wire.call) : Sunrpc_wire.reply_body =
  if not (Hashtbl.mem server.programs (call.prog, call.vers)) then
    Sunrpc_wire.Prog_unavail
  else begin
    let proc =
      if call.procnum = 0l then
        (* NULL procedure: implicitly present on every program. *)
        Some { sign = null_signature; impl = (fun _ -> Wire.Value.Void) }
      else Hashtbl.find_opt server.procs (call.prog, call.vers, call.procnum)
    in
    match proc with
    | None -> Sunrpc_wire.Proc_unavail
    | Some { sign; impl } -> (
        match Wire.Xdr.of_string sign.arg call.body with
        | exception _ -> Sunrpc_wire.Garbage_args
        | arg -> (
            match impl arg with
            | res -> Sunrpc_wire.Success (Wire.Xdr.to_string sign.res res)
            | exception (Failure _ | Invalid_argument _) -> Sunrpc_wire.System_err))
  end

let start server =
  if server.running then invalid_arg "Sunrpc.start: already running";
  server.running <- true;
  let name = Printf.sprintf "sunrpc:%d" (port server) in
  Sim.Engine.spawn_child ~name (fun () ->
      while server.running do
        let src, payload = Udp.recv server.sock in
        if server.service_overhead_ms > 0.0 then
          Sim.Engine.sleep server.service_overhead_ms;
        match Sunrpc_wire.decode payload with
        | exception Sunrpc_wire.Bad_message _ -> () (* drop garbage *)
        | Sunrpc_wire.Reply _ -> () (* stray reply: drop *)
        | Sunrpc_wire.Call call ->
            let rbody = handle server call in
            let reply = Sunrpc_wire.(Reply { rxid = call.xid; rbody }) in
            Udp.sendto server.sock ~dst:src (Sunrpc_wire.encode reply)
      done)

let stop server = server.running <- false

let call stack ~dst ~prog ~vers ~procnum ~sign ?(timeout = 1000.0) ?(attempts = 3) v =
  Wire.Idl.check ~what:"Sunrpc.call args" sign.Wire.Idl.arg v;
  let sock = Udp.bind_any stack in
  let xid = Control.next_xid () in
  let call_msg =
    Sunrpc_wire.(
      encode
        (Call
           {
             xid;
             prog = Int32.of_int prog;
             vers = Int32.of_int vers;
             procnum = Int32.of_int procnum;
             body = Wire.Xdr.to_string sign.Wire.Idl.arg v;
           }))
  in
  let t0 = Sim.Engine.time () in
  let attempt ~timeout =
    Udp.sendto sock ~dst call_msg;
    (* Drain until our xid answers or the window closes; stale replies
       from earlier retransmissions are ignored. *)
    let deadline = Sim.Engine.time () +. timeout in
    let rec wait () =
      let remaining = deadline -. Sim.Engine.time () in
      if remaining <= 0.0 then None
      else
        match Udp.recv_timeout sock remaining with
        | None -> None
        | Some (_, payload) -> (
            match Sunrpc_wire.decode payload with
            | exception Sunrpc_wire.Bad_message _ -> wait ()
            | Sunrpc_wire.Call _ -> wait ()
            | Sunrpc_wire.Reply r -> if r.rxid = xid then Some r.rbody else wait ())
    in
    wait ()
  in
  let result =
    match Control.with_retries ~attempts ~timeout attempt with
    | None -> Error (Control.Timeout { elapsed_ms = Sim.Engine.time () -. t0 })
    | Some rbody -> (
        match Sunrpc_wire.reply_to_result rbody with
        | Error _ as e -> e
        | Ok body -> (
            match Wire.Xdr.of_string sign.Wire.Idl.res body with
            | exception _ -> Error (Control.Protocol_error "undecodable results")
            | res -> Ok res))
  in
  Udp.close sock;
  result
