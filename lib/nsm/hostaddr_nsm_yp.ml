type t = {
  stack : Transport.Netstack.stack;
  client : Yp.Yp_client.t;
  cache_ : Hns.Cache.t;
  cache_ttl_ms : float;
  per_query_ms : float;
  mutable backend : int;
}

let create stack ~yp_server ~domain ?cache ?(cache_ttl_ms = 600_000.0)
    ?(per_query_ms = 0.0) () =
  let cache_ =
    match cache with
    | Some c -> c
    | None -> Hns.Cache.create ~mode:Hns.Cache.Demarshalled ()
  in
  {
    stack;
    client = Yp.Yp_client.create stack ~server:yp_server ~domain;
    cache_;
    cache_ttl_ms;
    per_query_ms;
    backend = 0;
  }

let cache t = t.cache_
let backend_queries t = t.backend

let lookup t ~(hns_name : Hns.Hns_name.t) =
  let key = Nsm_common.cache_key ~tag:"yp-hostaddr" ~service:"" hns_name in
  match Hns.Cache.find t.cache_ ~key ~ty:Hns.Nsm_intf.host_address_payload_ty with
  | Some v -> Hns.Nsm_intf.found v
  | None -> (
      Sim.Engine.charge t.per_query_ms;
      t.backend <- t.backend + 1;
      match
        Yp.Yp_client.match_ t.client ~map:Yp.Yp_proto.map_hosts_byname hns_name.name
      with
      | Error e -> failwith (Format.asprintf "YP lookup failed: %a" Rpc.Control.pp_error e)
      | Ok None -> Hns.Nsm_intf.not_found
      | Ok (Some entry) -> (
          (* hosts.byname values look like "10.1.0.1 sparcstation1" *)
          let addr_part =
            match String.index_opt entry ' ' with
            | Some i -> String.sub entry 0 i
            | None -> entry
          in
          match Nsm_common.parse_dotted_quad addr_part with
          | None -> failwith (Printf.sprintf "malformed hosts.byname entry %S" entry)
          | Some ip ->
              let v = Wire.Value.Uint ip in
              Hns.Cache.insert t.cache_ ~key ~ty:Hns.Nsm_intf.host_address_payload_ty
                ~ttl_ms:t.cache_ttl_ms v;
              Hns.Nsm_intf.found v))

let impl t =
  Nsm_common.instrument ~name:"yp.hostaddress" (fun arg ->
      let _service, hns_name = Hns.Nsm_intf.parse_arg arg in
      lookup t ~hns_name)

let serve t ~prog ?vers ?suite ?port ?service_overhead_ms () =
  Nsm_common.serve t.stack ~impl:(impl t)
    ~payload_ty:Hns.Nsm_intf.host_address_payload_ty ~prog ?vers ?suite ?port
    ?service_overhead_ms ()
