type t = {
  stack : Transport.Netstack.stack;
  client : Yp.Yp_client.t;
  cache_ : Hns.Cache.t;
  per_query_ms : float;
}

let cache_ttl_ms = 600_000.0

let create stack ~yp_server ~domain ?(per_query_ms = 0.0) () =
  {
    stack;
    client = Yp.Yp_client.create stack ~server:yp_server ~domain;
    cache_ = Hns.Cache.create ~mode:Hns.Cache.Demarshalled ();
    per_query_ms;
  }

let lookup t ~(hns_name : Hns.Hns_name.t) =
  Nsm_common.lookup t.cache_ ~tag:"yp-hostaddr" ~service:"" hns_name
    ~ty:Hns.Nsm_intf.host_address_payload_ty ~ttl_ms:cache_ttl_ms
    ~per_query_ms:t.per_query_ms (fun () ->
      Result.map (Option.map (fun ip -> Wire.Value.Uint ip)) (Nsm_common.yp_host_addr t.client hns_name.name))

let impl t =
  Nsm_common.instrument ~name:"yp.hostaddress" (fun arg ->
      let _service, hns_name = Hns.Nsm_intf.parse_arg arg in
      lookup t ~hns_name)

let serve t ~prog ?service_overhead_ms () =
  Nsm_common.serve t.stack ~impl:(impl t)
    ~payload_ty:Hns.Nsm_intf.host_address_payload_ty ~prog ?service_overhead_ms ()
