type host = { id : int; hostname : string }

type link = { latency_ms : float; per_byte_ms : float }

type t = {
  mutable host_list : host list; (* reversed registration order *)
  mutable next_id : int;
  by_name : (string, host) Hashtbl.t;
  links : (int * int, link) Hashtbl.t;
  default_latency_ms : float;
  default_per_byte_ms : float;
  loopback_ms : float;
}

let create ?(default_latency_ms = 0.5) ?(default_per_byte_ms = 0.0008)
    ?(loopback_ms = 0.05) () =
  {
    host_list = [];
    next_id = 0;
    by_name = Hashtbl.create 16;
    links = Hashtbl.create 16;
    default_latency_ms;
    default_per_byte_ms;
    loopback_ms;
  }

let add_host t name =
  if Hashtbl.mem t.by_name name then
    invalid_arg (Printf.sprintf "Topology.add_host: duplicate host %S" name);
  let h = { id = t.next_id; hostname = name } in
  t.next_id <- t.next_id + 1;
  t.host_list <- h :: t.host_list;
  Hashtbl.replace t.by_name name h;
  h

let find_host t name = Hashtbl.find_opt t.by_name name
let hosts t = List.rev t.host_list

let link_key a b = if a.id <= b.id then (a.id, b.id) else (b.id, a.id)

let set_link t a b ~latency_ms ~per_byte_ms =
  Hashtbl.replace t.links (link_key a b) { latency_ms; per_byte_ms }

let delay t ~src ~dst ~bytes =
  if src.id = dst.id then t.loopback_ms
  else begin
    let link =
      match Hashtbl.find_opt t.links (link_key src dst) with
      | Some l -> l
      | None -> { latency_ms = t.default_latency_ms; per_byte_ms = t.default_per_byte_ms }
    in
    link.latency_ms +. (float_of_int bytes *. link.per_byte_ms)
  end

let same_host a b = a.id = b.id
