type ('a, 'b) proc = {
  procnum : int;
  sign : Wire.Idl.signature;
  encode_arg : 'a -> Wire.Value.t;
  decode_res : Wire.Value.t -> 'b;
}

let proc ~procnum ~sign ~encode_arg ~decode_res =
  { procnum; sign; encode_arg; decode_res }

let call stack binding p a =
  match
    Client.call stack binding ~procnum:p.procnum ~sign:p.sign (p.encode_arg a)
  with
  | Error _ as e -> e
  | Ok v -> (
      match p.decode_res v with
      | exception Invalid_argument m -> Error (Rpc.Control.Protocol_error m)
      | b -> Ok b)
