let m_served = Obs.Metrics.counter "hns.meta.bundle_served"
let m_prefetch_offered = Obs.Metrics.counter "hns.meta.bundle_prefetch_offered"

(* The marker record carried at the bundle name itself: an UNSPEC
   record whose payload is the encoded bundle status.  Hand-encoded
   (byte-identical to the XDR form, pooled buffer): the synthesizer
   runs once per bundle query, making this the server's hottest
   encode. *)
let marker_rr qname status =
  Dns.Rr.make ~ttl:60l qname
    (Dns.Rr.Unspec (Hot_codec.encode_bundle_status status))

let meta_zone server =
  List.find_opt
    (fun z -> Dns.Name.equal (Dns.Zone.origin z) Meta_schema.zone_origin)
    (Dns.Server.zones server)

(* First UNSPEC rrset at [key], with its decoded payload. *)
let record db ~key ~ty =
  match Dns.Db.lookup db key Dns.Rr.T_unspec with
  | [] -> None
  | rr :: _ -> (
      match (rr : Dns.Rr.t).rdata with
      | Dns.Rr.Unspec bytes -> (
          match Wire.Xdr.of_string ty bytes with
          | exception _ -> None
          | v -> Some (rr, v))
      | _ -> None)

(* Answer one bundle question from the zone database: the real records
   behind mappings 1-3 (and, when resolvable, the context and NSM
   designation behind mappings 4-5 of the binding's host), headed by a
   status marker at the bundle name. [delegated] reports whether a key
   sits under a zone cut this server has delegated away: such a
   context is not absent — its records live with the partition owner —
   so the bundle declines (no marker) rather than asserting
   B_no_context, and the client's per-mapping walk chases the
   referral. *)
let answer ?(delegated = fun _ -> false) db ~qname ~context ~query_class =
  let ctx_key = Meta_schema.context_key context in
  match record db ~key:ctx_key ~ty:Meta_schema.string_ty with
  | None -> if delegated ctx_key then [] else [ marker_rr qname Meta_schema.B_no_context ]
  | Some (ctx_rr, ctx_v) -> (
      let ns = Wire.Value.get_str ctx_v in
      match
        record db
          ~key:(Meta_schema.nsm_name_key ~ns ~query_class)
          ~ty:Meta_schema.string_ty
      with
      | None -> [ marker_rr qname Meta_schema.B_no_nsm; ctx_rr ]
      | Some (nsm_rr, nsm_v) -> (
          let nsm = Wire.Value.get_str nsm_v in
          match
            record db
              ~key:(Meta_schema.nsm_binding_key nsm)
              ~ty:Meta_schema.nsm_info_ty
          with
          | None ->
              [ marker_rr qname Meta_schema.B_no_binding; ctx_rr; nsm_rr ]
          | Some (bind_rr, bind_v) ->
              let info = Meta_schema.nsm_info_of_value bind_v in
              (* Mappings 4-5 for the binding's host: best-effort —
                 their absence only means the client walks them. *)
              let host_rrs =
                let hc = info.Meta_schema.nsm_host_context in
                match
                  record db ~key:(Meta_schema.context_key hc)
                    ~ty:Meta_schema.string_ty
                with
                | None -> []
                | Some (hc_rr, hc_v) -> (
                    let host_ns = Wire.Value.get_str hc_v in
                    let hc_rrs =
                      if Dns.Name.equal hc_rr.Dns.Rr.name ctx_rr.Dns.Rr.name
                      then []
                      else [ hc_rr ]
                    in
                    match
                      record db
                        ~key:
                          (Meta_schema.nsm_name_key ~ns:host_ns
                             ~query_class:Query_class.host_address)
                        ~ty:Meta_schema.string_ty
                    with
                    | None -> hc_rrs
                    | Some (ha_rr, _)
                      when Dns.Name.equal ha_rr.Dns.Rr.name
                             nsm_rr.Dns.Rr.name ->
                        hc_rrs
                    | Some (ha_rr, _) -> hc_rrs @ [ ha_rr ])
              in
              marker_rr qname Meta_schema.B_ok :: ctx_rr :: nsm_rr :: bind_rr
              :: host_rrs))

type prefetch = {
  k : int;
  contexts : string list;
  hot : context:string -> (Dns.Name.t * float) list;
  addr_of : Dns.Name.t -> Transport.Address.ip option;
  ttl_s : int32;
  note : (context:string -> Dns.Name.t -> unit) option;
}

(* The resolve-tail prefetch: append the requesting context's hottest
   HostAddress answers to the bundle so an agent-side cold resolve
   needs no trailing NSM data round trip. The candidate ranking comes
   from the deployment ([hot], typically {!Dns.Server.hot_ranked} on
   the confederation's public BIND keyed by the context's zone, so one
   context's flash crowd cannot pollute another context's hints);
   names whose address the source cannot produce are skipped. *)
let prefetch_rrs pf ~context =
  if pf.contexts <> [] && not (List.mem context pf.contexts) then []
  else begin
    (* Rows are built only until [pf.k] exist: the ranking offers a few
       spare names for those without an address. *)
    let rec rows n = function
      | [] -> []
      | _ when n = 0 -> []
      | (name, _score) :: rest -> (
          match pf.addr_of name with
          | None -> rows n rest
          | Some ip ->
              let row =
                Dns.Rr.make ~ttl:pf.ttl_s
                  (Meta_schema.host_addr_key ~context
                     ~host:(Dns.Name.to_string name))
                  (* Hand-encoded per row, reusing one pooled buffer
                     across the whole tail. *)
                  (Dns.Rr.Unspec (Hot_codec.encode_host_addr ip))
              in
              (name, row) :: rows (n - 1) rest)
    in
    let rows = rows pf.k (pf.hot ~context) in
    Obs.Metrics.add m_prefetch_offered (List.length rows);
    rows
  end

let install ?prefetch server =
  Dns.Server.set_synthesizer server (fun (q : Dns.Msg.question) ->
      if q.qtype <> Dns.Rr.T_unspec then None
      else
        match Meta_schema.parse_bundle_key q.qname with
        | None -> None
        | Some (context, query_class) -> (
            match meta_zone server with
            | None -> None
            | Some zone -> (
                match
                  answer
                    ~delegated:(fun key ->
                      Dns.Server.delegation_for server key <> None)
                    (Dns.Zone.db zone) ~qname:q.qname ~context ~query_class
                with
                | exception _ -> None (* malformed key: ordinary NXDOMAIN *)
                | [] ->
                    (* Context delegated to a partition: a positive,
                       answerless reply — the client falls back to the
                       mapping walk, whose context lookup returns the
                       referral. *)
                    Some []
                | rrs ->
                    Obs.Metrics.incr m_served;
                    let extra =
                      match prefetch with
                      | None -> []
                      | Some pf -> (
                          try prefetch_rrs pf ~context with _ -> [])
                    in
                    (* The reply must clear the 512-byte UDP ceiling
                       whole: a TC'd bundle loses every answer and the
                       client falls back to the mapping walk — worse
                       than offering fewer hints. Shed prefetch rows
                       (never bundle records) until the message fits. *)
                    let fits answers =
                      let probe = Dns.Msg.query ~id:0 q.qname q.qtype in
                      String.length
                        (Dns.Msg.encode (Dns.Msg.response ~request:probe answers))
                      <= Dns.Msg.udp_payload_limit
                    in
                    let rec shed extra =
                      if fits (rrs @ List.map snd extra) then extra
                      else
                        match extra with
                        | [] -> []
                        | _ :: _ ->
                            (* drop the coldest hint: the list is
                               hottest-first *)
                            shed
                              (List.filteri
                                 (fun i _ -> i < List.length extra - 1)
                                 extra)
                    in
                    let kept = shed extra in
                    (* Hint keep-alive: re-note each hint actually
                       served (never shed ones) so cached names keep
                       their place in the ranking they earned. *)
                    (match prefetch with
                    | Some { note = Some note; _ } ->
                        List.iter (fun (name, _) -> note ~context name) kept
                    | _ -> ());
                    Some (rrs @ List.map snd kept))))
