type t = {
  stack : Transport.Netstack.stack;
  resolver : Dns.Resolver.t;
  cache_ : Hns.Cache.t;
  cache_ttl_ms : float;
  per_query_ms : float;
}

let create stack ~bind_server ?cache ?(cache_ttl_ms = 600_000.0) ?(per_query_ms = 0.0)
    () =
  let cache_ = Nsm_common.own_cache cache in
  {
    stack;
    resolver = Dns.Resolver.create stack ~servers:[ bind_server ] ~enable_cache:false ();
    cache_;
    cache_ttl_ms;
    per_query_ms;
  }

let cache t = t.cache_

let lookup t ~(hns_name : Hns.Hns_name.t) =
  Nsm_common.lookup t.cache_ ~tag:"bind-hostaddr" ~service:"" hns_name
    ~ty:Hns.Nsm_intf.host_address_payload_ty ~ttl_ms:t.cache_ttl_ms
    ~per_query_ms:t.per_query_ms (fun () ->
      Result.map (Option.map (fun ip -> Wire.Value.Uint ip)) (Nsm_common.bind_a t.resolver hns_name.name))

let impl t =
  Nsm_common.instrument ~name:"bind.hostaddress" (fun arg ->
      let _service, hns_name = Hns.Nsm_intf.parse_arg arg in
      lookup t ~hns_name)

let serve t ~prog ?service_overhead_ms () =
  Nsm_common.serve t.stack ~impl:(impl t)
    ~payload_ty:Hns.Nsm_intf.host_address_payload_ty ~prog ?service_overhead_ms ()
