type t = {
  stack : Transport.Netstack.stack;
  client : Yp.Yp_client.t;
  services : Nsm_common.directory;
  cache_ : Hns.Cache.t;
}

let cache_ttl_ms = 600_000.0

let create stack ~yp_server ~domain ?(services = []) () =
  {
    stack;
    client = Yp.Yp_client.create stack ~server:yp_server ~domain;
    services = Nsm_common.directory services;
    cache_ = Hns.Cache.create ~mode:Hns.Cache.Demarshalled ();
  }

let lookup t ~service ~(hns_name : Hns.Hns_name.t) =
  Nsm_common.lookup t.cache_ ~tag:"yp-binding" ~service hns_name ~ty:Hrpc.Binding.idl_ty
    ~ttl_ms:cache_ttl_ms ~per_query_ms:0.0 (fun () ->
      match Nsm_common.service_numbers t.services service with
      | Error m -> Error m
      | Ok (prog, vers) ->
          Nsm_common.and_then (Nsm_common.yp_host_addr t.client hns_name.name) (fun host_ip ->
              Nsm_common.sun_binding t.stack host_ip ~prog ~vers))

let impl t =
  Nsm_common.instrument ~name:"yp.hrpcbinding" (fun arg ->
      let service, hns_name = Hns.Nsm_intf.parse_arg arg in
      lookup t ~service ~hns_name)
