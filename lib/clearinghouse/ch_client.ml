type error = Not_found | Rpc_error of Rpc.Control.error

let pp_error ppf = function
  | Not_found -> Format.pp_print_string ppf "not found"
  | Rpc_error e -> Rpc.Control.pp_error ppf e

type t = { session : Rpc.Courier_rpc.session; credentials : Ch_proto.credentials }

let connect stack ~server ~credentials =
  { session = Rpc.Courier_rpc.connect stack server; credentials }

let close t = Rpc.Courier_rpc.close t.session

let call t procnum sign fields =
  let arg =
    Wire.Value.Struct
      (("cred", Ch_proto.credentials_to_value t.credentials) :: fields)
  in
  match
    Rpc.Courier_rpc.call t.session ~prog:Ch_proto.program ~vers:Ch_proto.version
      ~procnum ~sign arg
  with
  | Error e -> Error (Rpc_error e)
  | Ok v -> Ok v

let create_object t name =
  match
    call t Ch_proto.proc_create_object Ch_proto.create_object_sign
      [ ("name", Ch_name.to_value name) ]
  with
  | Error _ as e -> e
  | Ok v -> Ok (Wire.Value.get_bool v)

let store_item t name ~prop item =
  match
    call t Ch_proto.proc_store_item Ch_proto.store_item_sign
      [
        ("name", Ch_name.to_value name);
        ("prop", Wire.Value.int prop);
        ("item", Wire.Value.Opaque item);
      ]
  with
  | Error _ as e -> e
  | Ok _ -> Ok ()

let retrieve_item t name ~prop =
  match
    call t Ch_proto.proc_retrieve_item Ch_proto.retrieve_item_sign
      [ ("name", Ch_name.to_value name); ("prop", Wire.Value.int prop) ]
  with
  | Error _ as e -> e
  | Ok (Wire.Value.Union (0, Wire.Value.Opaque s)) -> Ok s
  | Ok _ -> Error Not_found

let add_member t name ~prop member =
  match
    call t Ch_proto.proc_add_member Ch_proto.add_member_sign
      [
        ("name", Ch_name.to_value name);
        ("prop", Wire.Value.int prop);
        ("member", Ch_name.to_value member);
      ]
  with
  | Error _ as e -> e
  | Ok _ -> Ok ()

let retrieve_members t name ~prop =
  match
    call t Ch_proto.proc_retrieve_members Ch_proto.retrieve_members_sign
      [ ("name", Ch_name.to_value name); ("prop", Wire.Value.int prop) ]
  with
  | Error _ as e -> e
  | Ok v -> Ok (List.map Ch_name.of_value (Wire.Value.get_array v))

let list_objects t ~domain ~org =
  match
    call t Ch_proto.proc_list_objects Ch_proto.list_objects_sign
      [ ("domain", Wire.Value.Str domain); ("org", Wire.Value.Str org) ]
  with
  | Error _ as e -> e
  | Ok v -> Ok (List.map Wire.Value.get_str (Wire.Value.get_array v))
