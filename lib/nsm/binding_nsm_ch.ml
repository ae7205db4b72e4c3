type t = {
  stack : Transport.Netstack.stack;
  ch_server : Transport.Address.t;
  credentials : Clearinghouse.Ch_proto.credentials;
  domain : string;
  org : string;
  cache_ : Hns.Cache.t;
  per_query_ms : float;
}

let cache_ttl_ms = 600_000.0

let create stack ~ch_server ~credentials ~domain ~org ?cache ?(per_query_ms = 0.0)
    () =
  let cache_ = Nsm_common.own_cache cache in
  { stack; ch_server; credentials; domain; org; cache_; per_query_ms }

let lookup t ~service ~(hns_name : Hns.Hns_name.t) =
  Nsm_common.lookup t.cache_ ~tag:"ch-binding" ~service hns_name ~ty:Hrpc.Binding.idl_ty
    ~ttl_ms:cache_ttl_ms ~per_query_ms:t.per_query_ms (fun () ->
      Nsm_common.and_then
        (Nsm_common.ch_retrieve t.stack ~server:t.ch_server ~credentials:t.credentials
           ~domain:t.domain ~org:t.org ~prop:Clearinghouse.Property.Id.service_binding
           (if service = "" then hns_name.name else service))
        (fun bytes ->
          match Hrpc.Binding.of_bytes bytes with
          | exception Invalid_argument m -> Error m
          | binding -> Ok (Some (Hrpc.Binding.to_value binding))))

let impl t =
  Nsm_common.instrument ~name:"ch.hrpcbinding" (fun arg ->
      let service, hns_name = Hns.Nsm_intf.parse_arg arg in
      lookup t ~service ~hns_name)

let serve t ~prog ?service_overhead_ms () =
  Nsm_common.serve t.stack ~impl:(impl t) ~payload_ty:Hns.Nsm_intf.binding_payload_ty
    ~prog ?service_overhead_ms ()
