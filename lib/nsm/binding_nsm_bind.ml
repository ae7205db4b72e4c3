type t = {
  stack : Transport.Netstack.stack;
  resolver : Dns.Resolver.t;
  services : (string, int * int) Hashtbl.t;
  cache_ : Hns.Cache.t;
  cache_ttl_ms : float;
  per_query_ms : float;
  mutable backend : int;
}

let create stack ~bind_server ?(services = []) ?cache ?(cache_ttl_ms = 600_000.0)
    ?(per_query_ms = 0.0) () =
  let cache_ =
    match cache with
    | Some c -> c
    | None -> Hns.Cache.create ~mode:Hns.Cache.Demarshalled ()
  in
  let t =
    {
      stack;
      (* The NSM keeps its own resolver; the HNS-level cache is
         deliberately separate (Table 3.1 distinguishes their hits). *)
      resolver = Dns.Resolver.create stack ~servers:[ bind_server ] ~enable_cache:false ();
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

(* ServiceName -> (prog, vers): directory first, then "prog:vers". *)
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
  let key = Nsm_common.cache_key ~tag:"bind-binding" ~service hns_name in
  match Hns.Cache.find t.cache_ ~key ~ty:Hrpc.Binding.idl_ty with
  | Some v -> Hns.Nsm_intf.found v
  | None -> (
      Sim.Engine.charge t.per_query_ms;
      match service_numbers t service with
      | None -> failwith (Printf.sprintf "unknown ServiceName %S" service)
      | Some (prog, vers) -> (
          t.backend <- t.backend + 1;
          (* Step 1: the local name lookup in BIND. *)
          match Dns.Resolver.lookup_a t.resolver (Dns.Name.of_string hns_name.name) with
          | Error Dns.Resolver.Nxdomain | Error Dns.Resolver.No_data ->
              Hns.Nsm_intf.not_found
          | Error e -> (
              (* BIND unreachable: degrade to a stale binding within
                 the cache's staleness budget before giving up. *)
              match Hns.Cache.find_stale t.cache_ ~key ~ty:Hrpc.Binding.idl_ty with
              | Some v -> Hns.Nsm_intf.found v
              | None ->
                  failwith
                    (Format.asprintf "BIND lookup failed: %a" Dns.Resolver.pp_error
                       e))
          | Ok host_ip -> (
              (* Step 2: the Sun binding protocol — ask the host's
                 portmapper for the service's port. *)
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
                  Hns.Nsm_intf.found v)))

let preload t ~context ~hosts =
  let warmed = ref 0 in
  Hashtbl.iter
    (fun service _ ->
      List.iter
        (fun host ->
          let hns_name = Hns.Hns_name.make ~context ~name:host in
          match lookup t ~service ~hns_name with
          | Wire.Value.Union (0, _) -> incr warmed
          | _ -> ()
          | exception Failure _ -> ())
        hosts)
    t.services;
  !warmed

let impl t =
  Nsm_common.instrument ~name:"bind.hrpcbinding" (fun arg ->
      let service, hns_name = Hns.Nsm_intf.parse_arg arg in
      lookup t ~service ~hns_name)

let serve t ~prog ?vers ?suite ?port ?service_overhead_ms () =
  Nsm_common.serve t.stack ~impl:(impl t) ~payload_ty:Hns.Nsm_intf.binding_payload_ty
    ~prog ?vers ?suite ?port ?service_overhead_ms ()
