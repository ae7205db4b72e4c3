let prog = 200100
let vers = 1
let proc_fetch = 1
let proc_store = 2
let proc_remove = 3
let proc_list = 4

let found_or_missing payload_ty =
  Wire.Idl.T_union ([ (0, payload_ty); (1, Wire.Idl.T_void) ], None)

let fetch_sign =
  Wire.Idl.signature ~arg:Wire.Idl.T_string ~res:(found_or_missing Wire.Idl.T_opaque)

let store_sign =
  Wire.Idl.signature
    ~arg:(Wire.Idl.T_struct [ ("name", Wire.Idl.T_string); ("data", Wire.Idl.T_opaque) ])
    ~res:Wire.Idl.T_bool

let remove_sign = Wire.Idl.signature ~arg:Wire.Idl.T_string ~res:Wire.Idl.T_bool
let list_sign = Wire.Idl.signature ~arg:Wire.Idl.T_void ~res:(Wire.Idl.T_array Wire.Idl.T_string)

type t = {
  server : Hrpc.Server.t;
  files : (string, string) Hashtbl.t;
  io_ms : float;
  mutable fetch_count : int;
  mutable store_count : int;
}

let create stack ~suite ?port ?(io_ms = 0.0) () =
  let server = Hrpc.Server.create stack ~suite ?port ~prog ~vers () in
  let t = { server; files = Hashtbl.create 32; io_ms; fetch_count = 0; store_count = 0 } in
  Hrpc.Server.register server ~procnum:proc_fetch ~sign:fetch_sign (fun v ->
      t.fetch_count <- t.fetch_count + 1;
      Sim.Engine.charge t.io_ms;
      match Hashtbl.find_opt t.files (Wire.Value.get_str v) with
      | Some data -> Wire.Value.Union (0, Wire.Value.Opaque data)
      | None -> Wire.Value.Union (1, Wire.Value.Void));
  Hrpc.Server.register server ~procnum:proc_store ~sign:store_sign (fun v ->
      t.store_count <- t.store_count + 1;
      Sim.Engine.charge t.io_ms;
      let name = Wire.Value.get_str (Wire.Value.field v "name") in
      let data =
        match Wire.Value.field v "data" with
        | Wire.Value.Opaque s -> s
        | other -> Wire.Value.get_str other
      in
      Hashtbl.replace t.files name data;
      Wire.Value.Bool true);
  Hrpc.Server.register server ~procnum:proc_remove ~sign:remove_sign (fun v ->
      Sim.Engine.charge t.io_ms;
      let name = Wire.Value.get_str v in
      let existed = Hashtbl.mem t.files name in
      Hashtbl.remove t.files name;
      Wire.Value.Bool existed);
  Hrpc.Server.register server ~procnum:proc_list ~sign:list_sign (fun _ ->
      Sim.Engine.charge t.io_ms;
      Wire.Value.Array
        (Hashtbl.fold (fun name _ acc -> Wire.Value.Str name :: acc) t.files []
        |> List.sort compare));
  t

let put t ~name data = Hashtbl.replace t.files name data
let get t ~name = Hashtbl.find_opt t.files name
let file_count t = Hashtbl.length t.files
let binding t = Hrpc.Server.binding t.server
let start t = Hrpc.Server.start t.server
let stop t = Hrpc.Server.stop t.server
let fetches t = t.fetch_count
let stores t = t.store_count
