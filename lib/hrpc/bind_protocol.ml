type t =
  | Static of Binding.t
  | Sun_portmapper of {
      host : Transport.Address.ip;
      prog : int;
      vers : int;
      suite : Component.protocol_suite;
    }
  | Clearinghouse_binding of {
      ch : Transport.Address.t;
      service : Clearinghouse.Ch_name.t;
      credentials : Clearinghouse.Ch_proto.credentials;
    }

let m_binds = Obs.Metrics.counter "hrpc.bind.resolves"
let m_bind_errors = Obs.Metrics.counter "hrpc.bind.errors"

let resolve_inner stack = function
  | Static b -> Ok b
  | Sun_portmapper { host; prog; vers; suite } -> (
      match Rpc.Portmap.getport stack ~portmapper:host ~prog ~vers () with
      | Error _ as e -> e
      | Ok None -> Error Rpc.Control.Prog_unavailable
      | Ok (Some port) ->
          Ok
            (Binding.make ~suite
               ~server:(Transport.Address.make host port)
               ~prog ~vers))
  | Clearinghouse_binding { ch; service; credentials } -> (
      match Clearinghouse.Ch_client.connect stack ~server:ch ~credentials with
      | exception Transport.Tcp.Connection_refused _ -> Error Rpc.Control.Refused
      | client ->
          let result =
            Clearinghouse.Ch_client.retrieve_item client service
              ~prop:Clearinghouse.Property.Id.service_binding
          in
          Clearinghouse.Ch_client.close client;
          (match result with
          | Error Clearinghouse.Ch_client.Not_found -> Error Rpc.Control.Prog_unavailable
          | Error (Clearinghouse.Ch_client.Rpc_error e) -> Error e
          | Ok bytes -> (
              match Binding.of_bytes bytes with
              | exception Invalid_argument m -> Error (Rpc.Control.Protocol_error m)
              | b -> Ok b)))

let resolve stack bind =
  Obs.Metrics.incr m_binds;
  Obs.Span.with_span "hrpc_bind" (fun () ->
      match resolve_inner stack bind with
      | Error _ as e ->
          Obs.Metrics.incr m_bind_errors;
          e
      | Ok _ as ok -> ok)
