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
  per_query_ms : float;
}

let cache_ttl_ms = 600_000.0

let create stack backend ~tag ?cache ?(per_query_ms = 0.0) () =
  let cache_ = Nsm_common.own_cache cache in
  let resolver =
    match backend with
    | Bind { server } ->
        Some (Dns.Resolver.create stack ~servers:[ server ] ~enable_cache:false ())
    | Ch _ -> None
  in
  { stack; backend; resolver; tag; cache_; per_query_ms }

let backend_lookup t (hns_name : Hns.Hns_name.t) =
  match t.backend with
  | Bind _ -> (
      let resolver = Option.get t.resolver in
      match
        Dns.Resolver.query resolver (Dns.Name.of_string hns_name.name) Dns.Rr.T_txt
      with
      | Error Dns.Resolver.Nxdomain | Error Dns.Resolver.No_data -> Ok None
      | Error e -> Error (Format.asprintf "BIND lookup failed: %a" Dns.Resolver.pp_error e)
      | Ok records ->
          Ok
            (List.find_map
               (fun (rr : Dns.Rr.t) ->
                 match rr.rdata with
                 | Dns.Rr.Txt (s :: _) -> Some s
                 | Dns.Rr.Txt [] | _ -> None)
               records))
  | Ch { server; credentials; domain; org; prop } ->
      Nsm_common.ch_retrieve t.stack ~server ~credentials ~domain ~org ~prop hns_name.name

let lookup t ~service ~(hns_name : Hns.Hns_name.t) =
  Nsm_common.lookup t.cache_ ~tag:t.tag ~service hns_name ~ty:Hns.Nsm_intf.text_payload_ty
    ~ttl_ms:cache_ttl_ms ~per_query_ms:t.per_query_ms (fun () ->
      Result.map (Option.map (fun s -> Wire.Value.Str s)) (backend_lookup t hns_name))

let impl t =
  Nsm_common.instrument ~name:("text." ^ t.tag) (fun arg ->
      let service, hns_name = Hns.Nsm_intf.parse_arg arg in
      lookup t ~service ~hns_name)

let serve t ~prog ?service_overhead_ms () =
  Nsm_common.serve t.stack ~impl:(impl t) ~payload_ty:Hns.Nsm_intf.text_payload_ty
    ~prog ?service_overhead_ms ()
