type error =
  | Name_error of Hns.Errors.t
  | Call_error of Rpc.Control.error
  | Malformed_location of string
  | Service_error of string

let pp_error ppf = function
  | Name_error e -> Hns.Errors.pp ppf e
  | Call_error e -> Rpc.Control.pp_error ppf e
  | Malformed_location s -> Format.fprintf ppf "malformed location record %S" s
  | Service_error s -> Format.fprintf ppf "service error: %s" s

type t = {
  hns_ : Hns.Client.t;
  bindings : (string, Hrpc.Binding.t) Hashtbl.t;
  conns : Hrpc.Conn_cache.t;
}

let create hns =
  {
    hns_ = hns;
    bindings = Hashtbl.create 16;
    conns = Hrpc.Conn_cache.create (Hns.Client.stack hns);
  }

let parse_host_spec ~default_context v =
  if v = "" then Error (Malformed_location v)
  else if String.contains v '!' then
    match Hns.Hns_name.of_string v with
    | name -> Ok name
    | exception Invalid_argument _ -> Error (Malformed_location v)
  else Ok (Hns.Hns_name.make ~context:default_context ~name:v)

let parse_location ~key ~default_context s =
  match String.index_opt s '=' with
  | None -> Error (Malformed_location s)
  | Some i ->
      let k = String.sub s 0 i in
      let v = String.sub s (i + 1) (String.length s - i - 1) in
      if not (String.equal k key) then Error (Malformed_location s)
      else parse_host_spec ~default_context v

let resolve_location_string t ~query_class (name : Hns.Hns_name.t) =
  match
    Hns.Client.resolve t.hns_ ~query_class ~payload_ty:Hns.Nsm_intf.text_payload_ty
      name
  with
  | Error e -> Error (Name_error e)
  | Ok None -> Error (Name_error (Hns.Errors.Name_not_found name))
  | Ok (Some (Wire.Value.Str s)) -> Ok s
  | Ok (Some v) -> Error (Malformed_location (Wire.Value.to_string v))

let resolve_location t ~query_class ~key (name : Hns.Hns_name.t) =
  match resolve_location_string t ~query_class name with
  | Error _ as e -> e
  | Ok s -> parse_location ~key ~default_context:name.context s

let cache_key ~service host = service ^ "@" ^ Hns.Hns_name.to_string host

let import t ~service (host : Hns.Hns_name.t) =
  let key = cache_key ~service host in
  match Hashtbl.find_opt t.bindings key with
  | Some b -> Ok b
  | None -> (
      match
        Hns.Client.find_nsm t.hns_ ~context:host.context
          ~query_class:Hns.Query_class.hrpc_binding
      with
      | Error e -> Error (Name_error e)
      | Ok resolved -> (
          match
            Hns.Nsm_intf.call (Hns.Client.stack t.hns_)
              (Hns.Nsm_intf.Remote resolved.Hns.Find_nsm.binding)
              ~payload_ty:Hns.Nsm_intf.binding_payload_ty ~service ~hns_name:host
          with
          | Error e -> Error (Name_error e)
          | Ok None -> Error (Name_error (Hns.Errors.Name_not_found host))
          | Ok (Some payload) -> (
              match Hrpc.Binding.of_value payload with
              | exception Invalid_argument m -> Error (Service_error m)
              | binding ->
                  Hashtbl.replace t.bindings key binding;
                  Ok binding)))

let call t binding ~procnum ~sign v =
  match Hrpc.Conn_cache.call t.conns binding ~procnum ~sign v with
  | Error e -> Error (Call_error e)
  | Ok _ as ok -> ok
