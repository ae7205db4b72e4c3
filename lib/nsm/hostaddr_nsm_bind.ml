type t = {
  stack : Transport.Netstack.stack;
  resolver : Dns.Resolver.t;
  cache_ : Hns.Cache.t;
  cache_ttl_ms : float;
  per_query_ms : float;
  mutable backend : int;
}

let create stack ~bind_server ?cache ?(cache_ttl_ms = 600_000.0) ?(per_query_ms = 0.0)
    () =
  let cache_ =
    match cache with
    | Some c -> c
    | None -> Hns.Cache.create ~mode:Hns.Cache.Demarshalled ()
  in
  {
    stack;
    resolver = Dns.Resolver.create stack ~servers:[ bind_server ] ~enable_cache:false ();
    cache_;
    cache_ttl_ms;
    per_query_ms;
    backend = 0;
  }

let cache t = t.cache_
let backend_queries t = t.backend

let lookup t ~(hns_name : Hns.Hns_name.t) =
  let key = Nsm_common.cache_key ~tag:"bind-hostaddr" ~service:"" hns_name in
  match Hns.Cache.find t.cache_ ~key ~ty:Hns.Nsm_intf.host_address_payload_ty with
  | Some v -> Hns.Nsm_intf.found v
  | None -> (
      Sim.Engine.charge t.per_query_ms;
      t.backend <- t.backend + 1;
      match Dns.Resolver.lookup_a t.resolver (Dns.Name.of_string hns_name.name) with
      | Error Dns.Resolver.Nxdomain | Error Dns.Resolver.No_data ->
          Hns.Nsm_intf.not_found
      | Error e -> (
          (* BIND unreachable: degrade to a stale entry within the
             cache's staleness budget before giving up. *)
          match
            Hns.Cache.find_stale t.cache_ ~key
              ~ty:Hns.Nsm_intf.host_address_payload_ty
          with
          | Some v -> Hns.Nsm_intf.found v
          | None ->
              failwith
                (Format.asprintf "BIND lookup failed: %a" Dns.Resolver.pp_error e))
      | Ok ip ->
          let v = Wire.Value.Uint ip in
          Hns.Cache.insert t.cache_ ~key ~ty:Hns.Nsm_intf.host_address_payload_ty
            ~ttl_ms:t.cache_ttl_ms v;
          Hns.Nsm_intf.found v)

let impl t =
  Nsm_common.instrument ~name:"bind.hostaddress" (fun arg ->
      let _service, hns_name = Hns.Nsm_intf.parse_arg arg in
      lookup t ~hns_name)

let serve t ~prog ?vers ?suite ?port ?service_overhead_ms () =
  Nsm_common.serve t.stack ~impl:(impl t)
    ~payload_ty:Hns.Nsm_intf.host_address_payload_ty ~prog ?vers ?suite ?port
    ?service_overhead_ms ()
