(* Each map is an association list in insertion order, so FIRST/NEXT
   enumerate deterministically like ypserv walking a dbm file. *)
type yp_map = { mutable entries : (string * string) list }

type t = {
  server : Rpc.Sunrpc.server;
  domain_ : string;
  maps : (string, yp_map) Hashtbl.t;
  lookup_ms : float;
  mutable lookup_count : int;
}

let get_map t name =
  match Hashtbl.find_opt t.maps name with
  | Some m -> m
  | None ->
      let m = { entries = [] } in
      Hashtbl.replace t.maps name m;
      m

let found v = Wire.Value.Union (0, Wire.Value.Opaque v)
let missing = Wire.Value.Union (1, Wire.Value.Void)

let entry_found (k, v) =
  Wire.Value.Union
    (0, Wire.Value.Struct [ ("key", Wire.Value.Opaque k); ("value", Wire.Value.Opaque v) ])

let opaque_str v =
  match v with Wire.Value.Opaque s -> s | other -> Wire.Value.get_str other

let create stack ?(port = 834) ?(lookup_ms = 0.0) ~domain () =
  let server = Rpc.Sunrpc.create stack ~port () in
  let t = { server; domain_ = domain; maps = Hashtbl.create 8; lookup_ms; lookup_count = 0 } in
  let reg procnum sign impl =
    Rpc.Sunrpc.register server ~prog:Yp_proto.program ~vers:Yp_proto.version ~procnum
      ~sign impl
  in
  let with_domain v k =
    if String.equal (Wire.Value.get_str (Wire.Value.field v "domain")) t.domain_ then k ()
    else missing
  in
  reg Yp_proto.proc_domain Yp_proto.domain_sign (fun v ->
      Wire.Value.Bool (String.equal (Wire.Value.get_str v) t.domain_));
  reg Yp_proto.proc_match Yp_proto.match_sign (fun v ->
      t.lookup_count <- t.lookup_count + 1;
      Sim.Engine.charge t.lookup_ms;
      with_domain v (fun () ->
          let map = get_map t (Wire.Value.get_str (Wire.Value.field v "map")) in
          let key = opaque_str (Wire.Value.field v "key") in
          match List.assoc_opt key map.entries with
          | Some value -> found value
          | None -> missing));
  reg Yp_proto.proc_first Yp_proto.first_sign (fun v ->
      t.lookup_count <- t.lookup_count + 1;
      Sim.Engine.charge t.lookup_ms;
      with_domain v (fun () ->
          let map = get_map t (Wire.Value.get_str (Wire.Value.field v "map")) in
          match map.entries with [] -> missing | e :: _ -> entry_found e));
  reg Yp_proto.proc_next Yp_proto.next_sign (fun v ->
      t.lookup_count <- t.lookup_count + 1;
      Sim.Engine.charge t.lookup_ms;
      with_domain v (fun () ->
          let map = get_map t (Wire.Value.get_str (Wire.Value.field v "map")) in
          let key = opaque_str (Wire.Value.field v "key") in
          let rec after = function
            | (k, _) :: (e :: _ as rest) when String.equal k key ->
                ignore rest;
                entry_found e
            | _ :: rest -> after rest
            | [] -> missing
          in
          after map.entries));
  t

let port t = Rpc.Sunrpc.port t.server
let addr t = Rpc.Sunrpc.addr t.server
let domain t = t.domain_

let set t ~map ~key value =
  let m = get_map t map in
  if List.mem_assoc key m.entries then
    m.entries <- List.map (fun (k, v) -> if String.equal k key then (k, value) else (k, v)) m.entries
  else m.entries <- m.entries @ [ (key, value) ]

let remove t ~map ~key =
  let m = get_map t map in
  m.entries <- List.filter (fun (k, _) -> not (String.equal k key)) m.entries

let map_size t ~map = List.length (get_map t map).entries
let start t = Rpc.Sunrpc.start t.server
let stop t = Rpc.Sunrpc.stop t.server
let lookups t = t.lookup_count
