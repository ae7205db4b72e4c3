type t = {
  stack : Transport.Netstack.stack;
  ch_server : Transport.Address.t;
  credentials : Clearinghouse.Ch_proto.credentials;
  domain : string;
  org : string;
  cache_ : Hns.Cache.t;
  cache_ttl_ms : float;
  per_query_ms : float;
  mutable backend : int;
}

let create stack ~ch_server ~credentials ~domain ~org ?cache
    ?(cache_ttl_ms = 600_000.0) ?(per_query_ms = 0.0) () =
  let cache_ =
    match cache with
    | Some c -> c
    | None -> Hns.Cache.create ~mode:Hns.Cache.Demarshalled ()
  in
  { stack; ch_server; credentials; domain; org; cache_; cache_ttl_ms; per_query_ms; backend = 0 }

let cache t = t.cache_
let backend_queries t = t.backend

let lookup t ~service ~(hns_name : Hns.Hns_name.t) =
  let key = Nsm_common.cache_key ~tag:"ch-binding" ~service hns_name in
  match Hns.Cache.find t.cache_ ~key ~ty:Hrpc.Binding.idl_ty with
  | Some v -> Hns.Nsm_intf.found v
  | None -> (
      Sim.Engine.charge t.per_query_ms;
      t.backend <- t.backend + 1;
      let local = if service = "" then hns_name.name else service in
      let obj = Clearinghouse.Ch_name.make ~local ~domain:t.domain ~org:t.org in
      let client =
        Clearinghouse.Ch_client.connect t.stack ~server:t.ch_server
          ~credentials:t.credentials
      in
      let result =
        Clearinghouse.Ch_client.retrieve_item client obj
          ~prop:Clearinghouse.Property.Id.service_binding
      in
      Clearinghouse.Ch_client.close client;
      match result with
      | Error Clearinghouse.Ch_client.Not_found -> Hns.Nsm_intf.not_found
      | Error (Clearinghouse.Ch_client.Rpc_error e) ->
          failwith
            (Format.asprintf "Clearinghouse lookup failed: %a" Rpc.Control.pp_error e)
      | Ok bytes -> (
          match Hrpc.Binding.of_bytes bytes with
          | exception Invalid_argument m -> failwith m
          | binding ->
              let v = Hrpc.Binding.to_value binding in
              Hns.Cache.insert t.cache_ ~key ~ty:Hrpc.Binding.idl_ty
                ~ttl_ms:t.cache_ttl_ms v;
              Hns.Nsm_intf.found v))

let impl t =
  Nsm_common.instrument ~name:"ch.hrpcbinding" (fun arg ->
      let service, hns_name = Hns.Nsm_intf.parse_arg arg in
      lookup t ~service ~hns_name)

let serve t ~prog ?vers ?suite ?port ?service_overhead_ms () =
  Nsm_common.serve t.stack ~impl:(impl t) ~payload_ty:Hns.Nsm_intf.binding_payload_ty
    ~prog ?vers ?suite ?port ?service_overhead_ms ()
