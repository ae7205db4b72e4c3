type t = string

let hrpc_binding = "HRPCBinding"
let host_address = "HostAddress"
let file_location = "FileLocation"
let mailbox_location = "MailboxLocation"

let validate t =
  if t = "" then invalid_arg "Query_class.validate: empty";
  String.iter
    (fun c ->
      if c = '.' || c = '!' then
        invalid_arg (Printf.sprintf "Query_class.validate: %S contains %C" t c))
    t

let equal = String.equal
