open Transport

let frame ~transaction ~prog ~vers ~procnum body =
  let call =
    Courier_wire.(encode (Call { transaction; prog = Int32.of_int prog; vers; procnum; body }))
  in
  let accept resp =
    match Courier_wire.decode resp with
    | exception Courier_wire.Bad_message m -> Some (Error (Control.Protocol_error m))
    | Courier_wire.Call _ -> None
    | Courier_wire.Return r -> if r.transaction <> transaction then None else Some (Ok r.body)
    | Courier_wire.Abort a ->
        if a.transaction <> transaction then None
        else
          let detail =
            match Wire.Courier.of_string Wire.Idl.T_string a.body with
            | Wire.Value.Str s -> s
            | _ | (exception _) -> Printf.sprintf "abort %d" a.error
          in
          Some (Error (Control.Protocol_error ("remote abort: " ^ detail)))
    | Courier_wire.Reject r ->
        if r.transaction <> transaction then None
        else Some (Error (Courier_wire.reject_to_error r.code))
  in
  (call, accept)

let dispatch procs ~rep ~serve payload =
  match Courier_wire.decode payload with
  | exception Courier_wire.Bad_message _ -> None
  | Courier_wire.Return _ | Courier_wire.Abort _ | Courier_wire.Reject _ -> None
  | Courier_wire.Call c ->
      let transaction = c.transaction in
      let reject code = Courier_wire.Reject { transaction; code } in
      let reply =
        match
          Control.invoke procs ~rep ~serve ~prog:(Int32.to_int c.prog) ~vers:c.vers
            ~procnum:c.procnum c.body
        with
        | Ok body -> Courier_wire.Return { transaction; body }
        | Error Control.No_program -> reject Courier_wire.No_such_program
        | Error Control.No_version -> reject Courier_wire.No_such_version
        | Error Control.No_procedure -> reject Courier_wire.No_such_procedure
        | Error Control.Bad_arguments -> reject Courier_wire.Invalid_arguments
        | Error (Control.Crashed msg) ->
            Courier_wire.Abort
              {
                transaction;
                error = 1;
                body = Wire.Courier.to_string Wire.Idl.T_string (Wire.Value.Str msg);
              }
      in
      Some (Courier_wire.encode reply)

type server = {
  listener : Tcp.listener;
  procs : Control.procedures;
  mutable running : bool;
}

let create stack ?(port = Address.Well_known.courier) () =
  { listener = Tcp.listen stack ~port; procs = Control.procedures (); running = false }

let addr server = Tcp.listener_addr server.listener
let register server = Control.register server.procs

let start server =
  if server.running then invalid_arg "Courier_rpc.start: already running";
  server.running <- true;
  let name = Printf.sprintf "courier:%d" (addr server).Address.port in
  (* A Courier daemon serves until the simulation ends: nothing stops it. *)
  ignore
    (Rawrpc.serve_tcp server.listener ~name ~service_overhead_ms:0.0
       (dispatch server.procs ~rep:Wire.Data_rep.Courier ~serve:Control.untraced)
      : unit -> unit)

type session = { conn : Tcp.conn; mutable next_transaction : int }

let connect stack dst = { conn = Tcp.connect stack dst; next_transaction = 1 }

(* How long a call waits for its reply. *)
let timeout = 2000.0

let call session ~prog ~vers ~procnum ~sign v =
  Wire.Idl.check ~what:"Courier_rpc.call args" sign.Wire.Idl.arg v;
  let transaction = session.next_transaction land 0xFFFF in
  session.next_transaction <- session.next_transaction + 1;
  let payload, accept =
    frame ~transaction ~prog ~vers ~procnum (Wire.Courier.to_string sign.Wire.Idl.arg v)
  in
  Tcp.send session.conn payload;
  Control.decode_results Wire.Data_rep.Courier sign
    (Rawrpc.await session.conn ~t0:(Sim.Engine.time ()) ~timeout ~accept)

let close session = Tcp.close session.conn
