type t = {
  stack : Transport.Netstack.stack;
  resolver : Dns.Resolver.t;
  services : Nsm_common.directory;
  cache_ : Hns.Cache.t;
  cache_ttl_ms : float;
  per_query_ms : float;
}

let create stack ~bind_server ?(services = []) ?cache ?(cache_ttl_ms = 600_000.0)
    ?(per_query_ms = 0.0) () =
  let cache_ = Nsm_common.own_cache cache in
  {
    stack;
    (* The NSM keeps its own resolver; the HNS-level cache is
       deliberately separate (Table 3.1 distinguishes their hits). *)
    resolver = Dns.Resolver.create stack ~servers:[ bind_server ] ~enable_cache:false ();
    services = Nsm_common.directory services;
    cache_;
    cache_ttl_ms;
    per_query_ms;
  }

let add_service t name ~prog ~vers = Hashtbl.replace t.services name (prog, vers)
let cache t = t.cache_

let lookup t ~service ~(hns_name : Hns.Hns_name.t) =
  Nsm_common.lookup t.cache_ ~tag:"bind-binding" ~service hns_name ~ty:Hrpc.Binding.idl_ty
    ~ttl_ms:t.cache_ttl_ms ~per_query_ms:t.per_query_ms (fun () ->
      match Nsm_common.service_numbers t.services service with
      | Error m -> Error m
      | Ok (prog, vers) ->
          (* The local name lookup in BIND, then the Sun binding
             protocol. *)
          Nsm_common.and_then (Nsm_common.bind_a t.resolver hns_name.name) (fun host_ip ->
              Nsm_common.sun_binding t.stack host_ip ~prog ~vers))

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

let serve t ~prog ?service_overhead_ms () =
  Nsm_common.serve t.stack ~impl:(impl t) ~payload_ty:Hns.Nsm_intf.binding_payload_ty
    ~prog ?service_overhead_ms ()
