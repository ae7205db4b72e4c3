let prog = 200200
let vers = 1
let proc_deliver = 1
let proc_read = 2
let proc_count = 3

type message = { from : string; subject : string; body : string }

let message_ty =
  Wire.Idl.T_struct
    [ ("from", Wire.Idl.T_string); ("subject", Wire.Idl.T_string); ("body", Wire.Idl.T_string) ]

let message_to_value m =
  Wire.Value.Struct
    [ ("from", Wire.Value.Str m.from); ("subject", Str m.subject); ("body", Str m.body) ]

let message_of_value v =
  {
    from = Wire.Value.get_str (Wire.Value.field v "from");
    subject = Wire.Value.get_str (Wire.Value.field v "subject");
    body = Wire.Value.get_str (Wire.Value.field v "body");
  }

let deliver_sign =
  Wire.Idl.signature
    ~arg:(Wire.Idl.T_struct [ ("user", Wire.Idl.T_string); ("message", message_ty) ])
    ~res:Wire.Idl.T_bool

let read_sign =
  Wire.Idl.signature ~arg:Wire.Idl.T_string ~res:(Wire.Idl.T_array message_ty)

let count_sign = Wire.Idl.signature ~arg:Wire.Idl.T_string ~res:Wire.Idl.T_int

type t = {
  server : Hrpc.Server.t;
  boxes : (string, message list ref) Hashtbl.t;
  io_ms : float;
  mutable delivery_count : int;
}

let create stack ?(suite = Hrpc.Component.sunrpc_suite) ?port ?(io_ms = 0.0) () =
  let server = Hrpc.Server.create stack ~suite ?port ~prog ~vers () in
  let t = { server; boxes = Hashtbl.create 16; io_ms; delivery_count = 0 } in
  Hrpc.Server.register server ~procnum:proc_deliver ~sign:deliver_sign (fun v ->
      Sim.Engine.charge t.io_ms;
      let user = Wire.Value.get_str (Wire.Value.field v "user") in
      match Hashtbl.find_opt t.boxes user with
      | None -> Wire.Value.Bool false
      | Some box ->
          box := !box @ [ message_of_value (Wire.Value.field v "message") ];
          t.delivery_count <- t.delivery_count + 1;
          Wire.Value.Bool true);
  Hrpc.Server.register server ~procnum:proc_read ~sign:read_sign (fun v ->
      Sim.Engine.charge t.io_ms;
      match Hashtbl.find_opt t.boxes (Wire.Value.get_str v) with
      | None -> Wire.Value.Array []
      | Some box -> Wire.Value.Array (List.map message_to_value !box));
  Hrpc.Server.register server ~procnum:proc_count ~sign:count_sign (fun v ->
      Sim.Engine.charge t.io_ms;
      match Hashtbl.find_opt t.boxes (Wire.Value.get_str v) with
      | None -> Wire.Value.int (-1)
      | Some box -> Wire.Value.int (List.length !box));
  t

let add_user t user =
  if not (Hashtbl.mem t.boxes user) then Hashtbl.replace t.boxes user (ref [])

let mailbox t ~user =
  match Hashtbl.find_opt t.boxes user with Some box -> !box | None -> []

let binding t = Hrpc.Server.binding t.server
let start t = Hrpc.Server.start t.server
let stop t = Hrpc.Server.stop t.server
let deliveries t = t.delivery_count
