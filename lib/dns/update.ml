type error =
  | Refused
  | Not_zone
  | Server_error of Msg.rcode
  | Rpc_error of Rpc.Control.error

let pp_error ppf = function
  | Refused -> Format.pp_print_string ppf "update refused"
  | Not_zone -> Format.pp_print_string ppf "update outside zone"
  | Server_error rc -> Format.fprintf ppf "server error %s" (Msg.rcode_to_string rc)
  | Rpc_error e -> Rpc.Control.pp_error ppf e

let send transport ~zone ops =
  match Exchange.call transport (fun id -> Msg.update_request ~id ~zone ops) with
  | Error e -> Error (Rpc_error e)
  | Ok { Msg.rcode = Msg.No_error; answers; _ } -> Ok (Rr.first_serial answers)
  | Ok { Msg.rcode = Msg.Refused; _ } -> Error Refused
  | Ok { Msg.rcode = Msg.Not_zone; _ } -> Error Not_zone
  | Ok { Msg.rcode; _ } -> Error (Server_error rcode)

let add_rr transport ~zone rr = send transport ~zone [ Msg.Add rr ]
