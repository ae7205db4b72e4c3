open Transport

type proc = { sign : Wire.Idl.signature; impl : Wire.Value.t -> Wire.Value.t }

type server = {
  listener : Tcp.listener;
  procs : (int32 * int * int, proc) Hashtbl.t;
  programs : (int32 * int, unit) Hashtbl.t;
  mutable running : bool;
}

let create stack ?(port = Address.Well_known.courier) () =
  {
    listener = Tcp.listen stack ~port;
    procs = Hashtbl.create 16;
    programs = Hashtbl.create 4;
    running = false;
  }

let addr server = Tcp.listener_addr server.listener
let port server = (addr server).Address.port

let register server ~prog ~vers ~procnum ~sign impl =
  let key = (Int32.of_int prog, vers, procnum) in
  if Hashtbl.mem server.procs key then
    invalid_arg
      (Printf.sprintf "Courier_rpc.register: duplicate procedure %d/%d/%d" prog vers
         procnum);
  Hashtbl.replace server.procs key { sign; impl };
  Hashtbl.replace server.programs (Int32.of_int prog, vers) ()

let handle server (c : Courier_wire.call) : Courier_wire.msg =
  let reject code = Courier_wire.Reject { transaction = c.transaction; code } in
  if not (Hashtbl.mem server.programs (c.prog, c.vers)) then
    reject Courier_wire.No_such_program
  else
    match Hashtbl.find_opt server.procs (c.prog, c.vers, c.procnum) with
    | None -> reject Courier_wire.No_such_procedure
    | Some { sign; impl } -> (
        match Wire.Courier.of_string sign.Wire.Idl.arg c.body with
        | exception _ -> reject Courier_wire.Invalid_arguments
        | arg -> (
            match impl arg with
            | res ->
                Courier_wire.Return
                  {
                    transaction = c.transaction;
                    body = Wire.Courier.to_string sign.Wire.Idl.res res;
                  }
            | exception (Failure msg | Invalid_argument msg) ->
                Courier_wire.Abort
                  {
                    transaction = c.transaction;
                    error = 1;
                    body = Wire.Courier.to_string Wire.Idl.T_string (Wire.Value.Str msg);
                  }))

let serve_connection server conn =
  let rec loop () =
    match Tcp.recv conn with
    | exception Tcp.Connection_closed -> ()
    | payload ->
        (match Courier_wire.decode payload with
        | exception Courier_wire.Bad_message _ -> ()
        | Courier_wire.Return _ | Courier_wire.Abort _ | Courier_wire.Reject _ -> ()
        | Courier_wire.Call c ->
            Tcp.send conn (Courier_wire.encode (handle server c)));
        loop ()
  in
  loop ();
  Tcp.close conn

let start server =
  if server.running then invalid_arg "Courier_rpc.start: already running";
  server.running <- true;
  let name = Printf.sprintf "courier:%d" (port server) in
  Sim.Engine.spawn_child ~name (fun () ->
      while server.running do
        let conn = Tcp.accept server.listener in
        Sim.Engine.spawn_child ~name:(name ^ ":conn") (fun () ->
            serve_connection server conn)
      done)

type session = { conn : Tcp.conn; mutable next_transaction : int }

let connect stack dst = { conn = Tcp.connect stack dst; next_transaction = 1 }

(* How long a call waits for its reply. *)
let timeout = 2000.0

let call session ~prog ~vers ~procnum ~sign v =
  Wire.Idl.check ~what:"Courier_rpc.call args" sign.Wire.Idl.arg v;
  let transaction = session.next_transaction land 0xFFFF in
  session.next_transaction <- session.next_transaction + 1;
  let call_msg =
    Courier_wire.(
      encode
        (Call
           {
             transaction;
             prog = Int32.of_int prog;
             vers;
             procnum;
             body = Wire.Courier.to_string sign.Wire.Idl.arg v;
           }))
  in
  Tcp.send session.conn call_msg;
  let t0 = Sim.Engine.time () in
  let timed_out () = Error (Control.Timeout { elapsed_ms = Sim.Engine.time () -. t0 }) in
  let rec wait deadline =
    let remaining = deadline -. Sim.Engine.time () in
    if remaining <= 0.0 then timed_out ()
    else
      match Tcp.recv_timeout session.conn remaining with
      | exception Tcp.Connection_closed -> Error Control.Refused
      | None -> timed_out ()
      | Some payload -> (
          match Courier_wire.decode payload with
          | exception Courier_wire.Bad_message m -> Error (Control.Protocol_error m)
          | Courier_wire.Call _ -> wait deadline
          | Courier_wire.Return r ->
              if r.transaction <> transaction then wait deadline
              else begin
                match Wire.Courier.of_string sign.Wire.Idl.res r.body with
                | exception _ -> Error (Control.Protocol_error "undecodable results")
                | res -> Ok res
              end
          | Courier_wire.Abort a ->
              if a.transaction <> transaction then wait deadline
              else begin
                let detail =
                  match Wire.Courier.of_string Wire.Idl.T_string a.body with
                  | Wire.Value.Str s -> s
                  | _ | (exception _) -> Printf.sprintf "abort %d" a.error
                in
                Error (Control.Protocol_error ("remote abort: " ^ detail))
              end
          | Courier_wire.Reject r ->
              if r.transaction <> transaction then wait deadline
              else Error (Courier_wire.reject_to_error r.code))
  in
  wait (Sim.Engine.time () +. timeout)

let close session = Tcp.close session.conn

let call_once stack ~dst ~prog ~vers ~procnum ~sign v =
  let session = connect stack dst in
  let result = call session ~prog ~vers ~procnum ~sign v in
  close session;
  result
