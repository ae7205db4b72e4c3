type transport = string -> (string, Rpc.Control.error) result

let next_id = ref 0

let encode build =
  next_id := (!next_id + 1) land 0xFFFF;
  Msg.encode (build !next_id)

let decode = function
  | Error _ as e -> e
  | Ok payload -> (
      match Msg.decode payload with
      | exception Msg.Bad_message m -> Error (Rpc.Control.Protocol_error m)
      | reply -> Ok reply)

let call (send : transport) build = decode (send (encode build))

let tcp stack ~dst ~timeout request =
  Rpc.Rawrpc.call_tcp stack ~dst ~connect_timeout_ms:Transport.Tcp.default_connect_timeout_ms
    ~timeout ~accept:(fun reply -> Some (Ok reply)) request

(* Both legs are called directly, so a query allocates no transport
   closure that would live across its wait. *)
let call_tc stack ~dst ~tcp_timeout build =
  let request = encode build in
  match decode (Rpc.Rawrpc.call stack ~dst request) with
  | Ok { Msg.truncated = true; _ } -> decode (tcp stack ~dst ~timeout:tcp_timeout request)
  | reply -> reply

let soa_serial send zone =
  match call send (fun id -> Msg.query ~id zone Rr.T_soa) with
  | Error _ -> None
  | Ok reply -> Rr.first_serial reply.Msg.answers
