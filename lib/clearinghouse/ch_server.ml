type update_event =
  | Object_created of Ch_name.t
  | Object_deleted of Ch_name.t
  | Property_stored of Ch_name.t * Property.t
  | Member_added of Ch_name.t * int * Ch_name.t

type t = {
  server : Rpc.Courier_rpc.server;
  database : Ch_db.t;
  users : (Ch_name.t * string) list ref;
  auth_ms : float;
  disk_ms : float;
  mutable access_count : int;
  mutable observers : (update_event -> unit) list;
}

let addr t = Rpc.Courier_rpc.addr t.server
let on_update t f = t.observers <- f :: t.observers
let notify t event = List.iter (fun f -> f event) (List.rev t.observers)
let db t = t.database
let add_user t user ~password = t.users := (user, password) :: !(t.users)
let accesses t = t.access_count

(* Authenticate, charge the per-access costs, and run the body. *)
let access t cred_value body =
  t.access_count <- t.access_count + 1;
  let cred = Ch_proto.credentials_of_value cred_value in
  if t.auth_ms > 0.0 then Sim.Engine.sleep t.auth_ms;
  let known =
    !(t.users) = []
    || List.exists
         (fun (u, p) -> Ch_name.equal u cred.Ch_proto.user && String.equal p cred.password)
         !(t.users)
  in
  if not known then failwith "Clearinghouse: authentication failed"
  else begin
    if t.disk_ms > 0.0 then Sim.Engine.sleep t.disk_ms;
    body ()
  end

let create stack ?(auth_ms = 0.0) ?(disk_ms = 0.0) () =
  let server =
    Rpc.Courier_rpc.create stack ~port:Transport.Address.Well_known.clearinghouse ()
  in
  let t =
    {
      server;
      database = Ch_db.create ();
      users = ref [];
      auth_ms;
      disk_ms;
      access_count = 0;
      observers = [];
    }
  in
  let reg procnum sign impl =
    Rpc.Courier_rpc.register server ~prog:Ch_proto.program ~vers:Ch_proto.version
      ~procnum ~sign impl
  in
  let field = Wire.Value.field in
  reg Ch_proto.proc_create_object Ch_proto.create_object_sign (fun v ->
      access t (field v "cred") (fun () ->
          let name = Ch_name.of_value (field v "name") in
          let created = Ch_db.create_object t.database name in
          if created then notify t (Object_created name);
          Wire.Value.Bool created));
  reg Ch_proto.proc_delete_object Ch_proto.delete_object_sign (fun v ->
      access t (field v "cred") (fun () ->
          let name = Ch_name.of_value (field v "name") in
          let deleted = Ch_db.delete_object t.database name in
          if deleted then notify t (Object_deleted name);
          Wire.Value.Bool deleted));
  reg Ch_proto.proc_store_item Ch_proto.store_item_sign (fun v ->
      access t (field v "cred") (fun () ->
          let name = Ch_name.of_value (field v "name") in
          let prop = Wire.Value.get_int (field v "prop") in
          let item =
            match field v "item" with
            | Wire.Value.Opaque s -> s
            | other -> Wire.Value.get_str other
          in
          Ch_db.store t.database name (Property.item prop item);
          notify t (Property_stored (name, Property.item prop item));
          Wire.Value.Bool true));
  reg Ch_proto.proc_retrieve_item Ch_proto.retrieve_item_sign (fun v ->
      access t (field v "cred") (fun () ->
          let name = Ch_name.of_value (field v "name") in
          let prop = Wire.Value.get_int (field v "prop") in
          match Ch_db.retrieve t.database name prop with
          | Some (Property.Item s) -> Wire.Value.Union (0, Wire.Value.Opaque s)
          | Some (Property.Group _) | None -> Wire.Value.Union (1, Wire.Value.Void)));
  reg Ch_proto.proc_add_member Ch_proto.add_member_sign (fun v ->
      access t (field v "cred") (fun () ->
          let name = Ch_name.of_value (field v "name") in
          let prop = Wire.Value.get_int (field v "prop") in
          let member = Ch_name.of_value (field v "member") in
          match Ch_db.add_member t.database name prop member with
          | () ->
              notify t (Member_added (name, prop, member));
              Wire.Value.Bool true
          | exception Invalid_argument _ -> Wire.Value.Bool false));
  reg Ch_proto.proc_retrieve_members Ch_proto.retrieve_members_sign (fun v ->
      access t (field v "cred") (fun () ->
          let name = Ch_name.of_value (field v "name") in
          let prop = Wire.Value.get_int (field v "prop") in
          Wire.Value.Array
            (List.map Ch_name.to_value (Ch_db.members t.database name prop))));
  reg Ch_proto.proc_list_objects Ch_proto.list_objects_sign (fun v ->
      access t (field v "cred") (fun () ->
          let domain = Wire.Value.get_str (field v "domain") in
          let org = Wire.Value.get_str (field v "org") in
          Wire.Value.Array
            (List.map
               (fun s -> Wire.Value.Str s)
               (Ch_db.list_objects t.database ~domain ~org))));
  t

let start t = Rpc.Courier_rpc.start t.server
