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

let encode_address ip =
  let wr = Wire.Bytebuf.Wr.create ~initial:4 () in
  Wire.Bytebuf.Wr.u32 wr ip;
  Wire.Bytebuf.Wr.contents wr

let decode_address s =
  if String.length s <> 4 then None
  else Some (Wire.Bytebuf.Rd.u32 (Wire.Bytebuf.Rd.of_string s))

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

let lookup t ~(hns_name : Hns.Hns_name.t) =
  let key = Nsm_common.cache_key ~tag:"ch-hostaddr" ~service:"" hns_name in
  match Hns.Cache.find t.cache_ ~key ~ty:Hns.Nsm_intf.host_address_payload_ty with
  | Some v -> Hns.Nsm_intf.found v
  | None -> (
      Sim.Engine.charge t.per_query_ms;
      t.backend <- t.backend + 1;
      let obj =
        Clearinghouse.Ch_name.make ~local:hns_name.name ~domain:t.domain ~org:t.org
      in
      let client =
        Clearinghouse.Ch_client.connect t.stack ~server:t.ch_server
          ~credentials:t.credentials
      in
      let result =
        Clearinghouse.Ch_client.retrieve_item client obj
          ~prop:Clearinghouse.Property.Id.address
      in
      Clearinghouse.Ch_client.close client;
      match result with
      | Error Clearinghouse.Ch_client.Not_found -> Hns.Nsm_intf.not_found
      | Error (Clearinghouse.Ch_client.Rpc_error e) ->
          failwith
            (Format.asprintf "Clearinghouse lookup failed: %a" Rpc.Control.pp_error e)
      | Ok bytes -> (
          match decode_address bytes with
          | None -> failwith "malformed address property"
          | Some ip ->
              let v = Wire.Value.Uint ip in
              Hns.Cache.insert t.cache_ ~key ~ty:Hns.Nsm_intf.host_address_payload_ty
                ~ttl_ms:t.cache_ttl_ms v;
              Hns.Nsm_intf.found v))

let impl t =
  Nsm_common.instrument ~name:"ch.hostaddress" (fun arg ->
      let _service, hns_name = Hns.Nsm_intf.parse_arg arg in
      lookup t ~hns_name)

let serve t ~prog ?vers ?suite ?port ?service_overhead_ms () =
  Nsm_common.serve t.stack ~impl:(impl t)
    ~payload_ty:Hns.Nsm_intf.host_address_payload_ty ~prog ?vers ?suite ?port
    ?service_overhead_ms ()
