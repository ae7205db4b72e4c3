let program = 100000
let version = 2
let proc_set = 1
let proc_unset = 2
let proc_getport = 3

type protocol = P_udp | P_tcp

(* IPPROTO numbers, as in RFC 1057. *)
let protocol_number = function P_udp -> 17 | P_tcp -> 6

type t = {
  srv : Sunrpc.server;
  table : (int * int * int, int) Hashtbl.t; (* (prog, vers, proto) -> port *)
}

let mapping_ty =
  Wire.Idl.T_struct
    [ ("prog", Wire.Idl.T_uint); ("vers", T_uint); ("prot", T_uint); ("port", T_uint) ]

let getport_sign = Wire.Idl.signature ~arg:mapping_ty ~res:Wire.Idl.T_uint
let set_sign = Wire.Idl.signature ~arg:mapping_ty ~res:Wire.Idl.T_bool

let decode_mapping v =
  let f name = Wire.Value.get_int (Wire.Value.field v name) in
  (f "prog", f "vers", f "prot", f "port")

let start ?service_overhead_ms stack =
  let srv =
    Sunrpc.create stack ~port:Transport.Address.Well_known.sunrpc_portmapper
      ?service_overhead_ms ()
  in
  let table = Hashtbl.create 16 in
  Sunrpc.register srv ~prog:program ~vers:version ~procnum:proc_getport
    ~sign:getport_sign (fun v ->
      let prog, vers, prot, _ = decode_mapping v in
      let port =
        match Hashtbl.find_opt table (prog, vers, prot) with Some p -> p | None -> 0
      in
      Wire.Value.Uint (Int32.of_int port));
  Sunrpc.register srv ~prog:program ~vers:version ~procnum:proc_set ~sign:set_sign
    (fun v ->
      let prog, vers, prot, port = decode_mapping v in
      if Hashtbl.mem table (prog, vers, prot) then Wire.Value.Bool false
      else begin
        Hashtbl.replace table (prog, vers, prot) port;
        Wire.Value.Bool true
      end);
  Sunrpc.register srv ~prog:program ~vers:version ~procnum:proc_unset ~sign:set_sign
    (fun v ->
      let prog, vers, prot, _ = decode_mapping v in
      let existed = Hashtbl.mem table (prog, vers, prot) in
      Hashtbl.remove table (prog, vers, prot);
      Wire.Value.Bool existed);
  Sunrpc.start srv;
  { srv; table }

let set t ~prog ~vers ~protocol ~port =
  Hashtbl.replace t.table (prog, vers, protocol_number protocol) port

let unset t ~prog ~vers ~protocol =
  Hashtbl.remove t.table (prog, vers, protocol_number protocol)

let mapping_value ~prog ~vers ~protocol ~port =
  Wire.Value.Struct
    [
      ("prog", Wire.Value.Uint (Int32.of_int prog));
      ("vers", Wire.Value.Uint (Int32.of_int vers));
      ("prot", Wire.Value.Uint (Int32.of_int (protocol_number protocol)));
      ("port", Wire.Value.Uint (Int32.of_int port));
    ]

let getport stack ~portmapper ~prog ~vers () =
  let dst =
    Transport.Address.make portmapper Transport.Address.Well_known.sunrpc_portmapper
  in
  match
    Sunrpc.call stack ~dst ~prog:program ~vers:version ~procnum:proc_getport
      ~sign:getport_sign
      (mapping_value ~prog ~vers ~protocol:P_udp ~port:0)
  with
  | Error _ as e -> e
  | Ok v -> (
      match Wire.Value.get_int v with
      | 0 -> Ok None
      | p -> Ok (Some p))
