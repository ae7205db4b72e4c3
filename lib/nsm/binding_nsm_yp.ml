type t = {
  stack : Transport.Netstack.stack;
  client : Yp.Yp_client.t;
  services : (string, int * int) Hashtbl.t;
  cache_ : Hns.Cache.t;
  cache_ttl_ms : float;
  per_query_ms : float;
  mutable backend : int;
}

let create stack ~yp_server ~domain ?(services = []) ?cache
    ?(cache_ttl_ms = 600_000.0) ?(per_query_ms = 0.0) () =
  let cache_ =
    match cache with
    | Some c -> c
    | None -> Hns.Cache.create ~mode:Hns.Cache.Demarshalled ()
  in
  let t =
    {
      stack;
      client = Yp.Yp_client.create stack ~server:yp_server ~domain;
      services = Hashtbl.create 8;
      cache_;
      cache_ttl_ms;
      per_query_ms;
      backend = 0;
    }
  in
  List.iter (fun (name, (prog, vers)) -> Hashtbl.replace t.services name (prog, vers)) services;
  t

let add_service t name ~prog ~vers = Hashtbl.replace t.services name (prog, vers)
let cache t = t.cache_
let backend_queries t = t.backend

let service_numbers t service =
  match Hashtbl.find_opt t.services service with
  | Some pv -> Some pv
  | None -> (
      match String.split_on_char ':' service with
      | [ p; v ] -> (
          match (int_of_string_opt p, int_of_string_opt v) with
          | Some prog, Some vers -> Some (prog, vers)
          | _ -> None)
      | _ -> None)

let lookup t ~service ~(hns_name : Hns.Hns_name.t) =
  let key = Nsm_common.cache_key ~tag:"yp-binding" ~service hns_name in
  match Hns.Cache.find t.cache_ ~key ~ty:Hrpc.Binding.idl_ty with
  | Some v -> Hns.Nsm_intf.found v
  | None -> (
      Sim.Engine.charge t.per_query_ms;
      match service_numbers t service with
      | None -> failwith (Printf.sprintf "unknown ServiceName %S" service)
      | Some (prog, vers) -> (
          t.backend <- t.backend + 1;
          match
            Yp.Yp_client.match_ t.client ~map:Yp.Yp_proto.map_hosts_byname
              hns_name.name
          with
          | Error e ->
              failwith (Format.asprintf "YP lookup failed: %a" Rpc.Control.pp_error e)
          | Ok None -> Hns.Nsm_intf.not_found
          | Ok (Some entry) -> (
              let addr_part =
                match String.index_opt entry ' ' with
                | Some i -> String.sub entry 0 i
                | None -> entry
              in
              match Nsm_common.parse_dotted_quad addr_part with
              | None -> failwith (Printf.sprintf "malformed hosts.byname entry %S" entry)
              | Some host_ip -> (
                  match
                    Rpc.Portmap.getport t.stack ~portmapper:host_ip ~prog ~vers ()
                  with
                  | Error e ->
                      failwith
                        (Format.asprintf "portmapper failed: %a" Rpc.Control.pp_error e)
                  | Ok None -> Hns.Nsm_intf.not_found
                  | Ok (Some port) ->
                      let binding =
                        Hrpc.Binding.make ~suite:Hrpc.Component.sunrpc_suite
                          ~server:(Transport.Address.make host_ip port)
                          ~prog ~vers
                      in
                      let v = Hrpc.Binding.to_value binding in
                      Hns.Cache.insert t.cache_ ~key ~ty:Hrpc.Binding.idl_ty
                        ~ttl_ms:t.cache_ttl_ms v;
                      Hns.Nsm_intf.found v))))

let impl t =
  Nsm_common.instrument ~name:"yp.hrpcbinding" (fun arg ->
      let service, hns_name = Hns.Nsm_intf.parse_arg arg in
      lookup t ~service ~hns_name)

let serve t ~prog ?vers ?suite ?port ?service_overhead_ms () =
  Nsm_common.serve t.stack ~impl:(impl t) ~payload_ty:Hns.Nsm_intf.binding_payload_ty
    ~prog ?vers ?suite ?port ?service_overhead_ms ()
