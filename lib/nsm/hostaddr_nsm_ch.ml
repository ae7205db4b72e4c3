type t = {
  stack : Transport.Netstack.stack;
  ch_server : Transport.Address.t;
  credentials : Clearinghouse.Ch_proto.credentials;
  domain : string;
  org : string;
  cache_ : Hns.Cache.t;
  cache_ttl_ms : float;
  per_query_ms : float;
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
  let cache_ = Nsm_common.own_cache cache in
  { stack; ch_server; credentials; domain; org; cache_; cache_ttl_ms; per_query_ms }

let lookup t ~(hns_name : Hns.Hns_name.t) =
  Nsm_common.lookup t.cache_ ~tag:"ch-hostaddr" ~service:"" hns_name
    ~ty:Hns.Nsm_intf.host_address_payload_ty ~ttl_ms:t.cache_ttl_ms
    ~per_query_ms:t.per_query_ms (fun () ->
      Nsm_common.and_then
        (Nsm_common.ch_retrieve t.stack ~server:t.ch_server ~credentials:t.credentials
           ~domain:t.domain ~org:t.org ~prop:Clearinghouse.Property.Id.address hns_name.name)
        (fun bytes ->
          match decode_address bytes with
          | None -> Error "malformed address property"
          | Some ip -> Ok (Some (Wire.Value.Uint ip))))

let impl t =
  Nsm_common.instrument ~name:"ch.hostaddress" (fun arg ->
      let _service, hns_name = Hns.Nsm_intf.parse_arg arg in
      lookup t ~hns_name)

let serve t ~prog ?service_overhead_ms () =
  Nsm_common.serve t.stack ~impl:(impl t)
    ~payload_ty:Hns.Nsm_intf.host_address_payload_ty ~prog ?service_overhead_ms ()
