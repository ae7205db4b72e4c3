type error = Refused | Transfer_failed of string

let pp_error ppf = function
  | Refused -> Format.pp_print_string ppf "transfer refused"
  | Transfer_failed m -> Format.fprintf ppf "transfer failed: %s" m

let transfer stack ~server ~on_answers build =
  match Exchange.call (Exchange.tcp stack ~dst:server ~timeout:10_000.0) build with
  | Error e ->
      Error
        (Transfer_failed
           (match e with
           | Rpc.Control.Refused -> "connection refused"
           | Rpc.Control.Timeout _ -> "timeout"
           | Rpc.Control.Protocol_error m -> m
           | e -> Rpc.Control.error_to_string e))
  | Ok { Msg.rcode = Msg.No_error; answers; _ } -> on_answers answers
  | Ok { Msg.rcode = Msg.Refused; _ } -> Error Refused
  | Ok { Msg.rcode; _ } -> Error (Transfer_failed (Msg.rcode_to_string rcode))

let fetch stack ~server ~zone =
  transfer stack ~server
    ~on_answers:(fun answers -> Ok answers)
    (fun id -> { (Msg.query ~id zone Rr.T_axfr) with Msg.recursion_desired = false })
