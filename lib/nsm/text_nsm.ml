type backend =
  | Bind of { server : Transport.Address.t }
  | Ch of {
      server : Transport.Address.t;
      credentials : Clearinghouse.Ch_proto.credentials;
      domain : string;
      org : string;
      prop : int;
    }

type t = {
  stack : Transport.Netstack.stack;
  backend : backend;
  resolver : Dns.Resolver.t option; (* for the Bind backend *)
  tag : string;
  cache_ : Hns.Cache.t;
  cache_ttl_ms : float;
  per_query_ms : float;
  mutable backend_count : int;
}

let create stack backend ~tag ?cache ?(cache_ttl_ms = 600_000.0) ?(per_query_ms = 0.0)
    () =
  let cache_ =
    match cache with
    | Some c -> c
    | None -> Hns.Cache.create ~mode:Hns.Cache.Demarshalled ()
  in
  let resolver =
    match backend with
    | Bind { server } ->
        Some (Dns.Resolver.create stack ~servers:[ server ] ~enable_cache:false ())
    | Ch _ -> None
  in
  { stack; backend; resolver; tag; cache_; cache_ttl_ms; per_query_ms; backend_count = 0 }

let cache t = t.cache_
let backend_queries t = t.backend_count

let backend_lookup t (hns_name : Hns.Hns_name.t) =
  t.backend_count <- t.backend_count + 1;
  match t.backend with
  | Bind _ -> (
      let resolver = Option.get t.resolver in
      match
        Dns.Resolver.query resolver (Dns.Name.of_string hns_name.name) Dns.Rr.T_txt
      with
      | Error Dns.Resolver.Nxdomain | Error Dns.Resolver.No_data -> None
      | Error e ->
          failwith (Format.asprintf "BIND lookup failed: %a" Dns.Resolver.pp_error e)
      | Ok records ->
          List.find_map
            (fun (rr : Dns.Rr.t) ->
              match rr.rdata with
              | Dns.Rr.Txt (s :: _) -> Some s
              | Dns.Rr.Txt [] | _ -> None)
            records)
  | Ch { server; credentials; domain; org; prop } -> (
      let obj = Clearinghouse.Ch_name.make ~local:hns_name.name ~domain ~org in
      let client = Clearinghouse.Ch_client.connect t.stack ~server ~credentials in
      let result = Clearinghouse.Ch_client.retrieve_item client obj ~prop in
      Clearinghouse.Ch_client.close client;
      match result with
      | Error Clearinghouse.Ch_client.Not_found -> None
      | Error (Clearinghouse.Ch_client.Rpc_error e) ->
          failwith
            (Format.asprintf "Clearinghouse lookup failed: %a" Rpc.Control.pp_error e)
      | Ok s -> Some s)

let lookup t ~service ~(hns_name : Hns.Hns_name.t) =
  let key = Nsm_common.cache_key ~tag:t.tag ~service hns_name in
  match Hns.Cache.find t.cache_ ~key ~ty:Hns.Nsm_intf.text_payload_ty with
  | Some v -> Hns.Nsm_intf.found v
  | None -> (
      Sim.Engine.charge t.per_query_ms;
      match backend_lookup t hns_name with
      | None -> Hns.Nsm_intf.not_found
      | Some s ->
          let v = Wire.Value.Str s in
          Hns.Cache.insert t.cache_ ~key ~ty:Hns.Nsm_intf.text_payload_ty
            ~ttl_ms:t.cache_ttl_ms v;
          Hns.Nsm_intf.found v)

let impl t =
  Nsm_common.instrument ~name:("text." ^ t.tag) (fun arg ->
      let service, hns_name = Hns.Nsm_intf.parse_arg arg in
      lookup t ~service ~hns_name)

let serve t ~prog ?vers ?suite ?port ?service_overhead_ms () =
  Nsm_common.serve t.stack ~impl:(impl t) ~payload_ty:Hns.Nsm_intf.text_payload_ty
    ~prog ?vers ?suite ?port ?service_overhead_ms ()
