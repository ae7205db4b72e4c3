let register_name_service meta ~name info =
  Meta_schema.validate_simple_name ~what:"Admin.register_name_service" name;
  Meta_client.store meta ~key:(Meta_schema.ns_info_key name) ~ty:Meta_schema.ns_info_ty
    (Meta_schema.ns_info_to_value info)

let register_context meta ~context ~ns =
  Meta_schema.validate_simple_name ~what:"Admin.register_context ns" ns;
  Meta_client.store meta ~key:(Meta_schema.context_key context)
    ~ty:Meta_schema.string_ty (Wire.Value.Str ns)

let register_nsm meta ~name ~ns ~query_class info =
  Meta_schema.validate_simple_name ~what:"Admin.register_nsm" name;
  match
    Meta_client.store meta
      ~key:(Meta_schema.nsm_name_key ~ns ~query_class)
      ~ty:Meta_schema.string_ty (Wire.Value.Str name)
  with
  | Error _ as e -> e
  | Ok () ->
      Meta_client.store meta
        ~key:(Meta_schema.nsm_binding_key name)
        ~ty:Meta_schema.nsm_info_ty
        (Meta_schema.nsm_info_to_value info)

let register_alternate_nsm meta ~name ~ns ~query_class info =
  Meta_schema.validate_simple_name ~what:"Admin.register_alternate_nsm" name;
  (* Read-modify-write the alternates array, then record the
     alternate's own location so failover can resolve it. *)
  let key = Meta_schema.nsm_alternates_key ~ns ~query_class in
  let existing =
    match Meta_client.lookup meta ~key ~ty:Meta_schema.nsm_alternates_ty with
    | Ok (Some (Wire.Value.Array items)) ->
        List.filter_map
          (fun v -> match v with Wire.Value.Str s -> Some s | _ -> None)
          items
    | Ok _ | Error _ -> []
  in
  let names = if List.mem name existing then existing else existing @ [ name ] in
  match
    Meta_client.store meta ~key ~ty:Meta_schema.nsm_alternates_ty
      (Wire.Value.Array (List.map (fun s -> Wire.Value.Str s) names))
  with
  | Error _ as e -> e
  | Ok () ->
      Meta_client.store meta
        ~key:(Meta_schema.nsm_binding_key name)
        ~ty:Meta_schema.nsm_info_ty
        (Meta_schema.nsm_info_to_value info)

(* Delegate the <label> context subtree to a partition. One
   transaction replaces the NS rrset at the cut and the glue A records
   under nsglue: the primary's NS record goes FIRST, because rrset
   order is insertion order and clients take the first glue address in
   a referral as the partition primary (the write target). Clients
   cache the cut for [partition_ttl_s]. *)
let partition_ttl_s = 300l

let register_partition meta ~label ~primary ~replicas () =
  Meta_schema.validate_simple_name ~what:"Admin.register_partition" label;
  let cut = Meta_schema.partition_cut label in
  let servers = primary :: replicas in
  let ops =
    Dns.Msg.Delete_rrset (cut, Dns.Rr.T_ns)
    :: List.concat
         (List.mapi
            (fun j (addr : Transport.Address.t) ->
              let g = Meta_schema.partition_glue_key ~label j in
              [
                Dns.Msg.Add (Dns.Rr.make ~ttl:partition_ttl_s cut (Dns.Rr.Ns g));
                Dns.Msg.Delete_rrset (g, Dns.Rr.T_a);
                Dns.Msg.Add
                  (Dns.Rr.make ~ttl:partition_ttl_s g
                     (Dns.Rr.A addr.Transport.Address.ip));
              ])
            servers)
  in
  Meta_client.transact meta ops

let remove_context meta ~context =
  Meta_client.remove meta ~key:(Meta_schema.context_key context)

let nsm_info_of_binding ~host ~host_context (binding : Hrpc.Binding.t) =
  {
    Meta_schema.nsm_host = host;
    nsm_host_context = host_context;
    nsm_port = binding.Hrpc.Binding.server.Transport.Address.port;
    nsm_prog = binding.Hrpc.Binding.prog;
    nsm_vers = binding.Hrpc.Binding.vers;
    nsm_suite = binding.Hrpc.Binding.suite;
  }

let register_nsm_server meta ~name ~ns ~query_class ~host ~host_context
    (binding : Hrpc.Binding.t) =
  register_nsm meta ~name ~ns ~query_class
    (nsm_info_of_binding ~host ~host_context binding)

let register_alternate_nsm_server meta ~name ~ns ~query_class ~host ~host_context
    (binding : Hrpc.Binding.t) =
  register_alternate_nsm meta ~name ~ns ~query_class
    (nsm_info_of_binding ~host ~host_context binding)
