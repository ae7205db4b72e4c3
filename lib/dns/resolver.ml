type error =
  | Nxdomain
  | No_data
  | Server_error of Msg.rcode
  | Rpc_error of Rpc.Control.error

let pp_error ppf = function
  | Nxdomain -> Format.pp_print_string ppf "NXDOMAIN"
  | No_data -> Format.pp_print_string ppf "no data"
  | Server_error rc -> Format.fprintf ppf "server error %s" (Msg.rcode_to_string rc)
  | Rpc_error e -> Rpc.Control.pp_error ppf e

module Key = struct
  type t = Name.t * Rr.rtype

  let equal (n1, t1) (n2, t2) = Name.equal n1 n2 && t1 = t2
  let hash (n, t) = Name.hash n lxor (Rr.rtype_code t * 65599)
end

module Cache_tbl = Hashtbl.Make (Key)

module Name_tbl = Hashtbl.Make (struct
  type t = Name.t

  let equal = Name.equal
  let hash = Name.hash
end)

type entry = { outcome : (Rr.t list, error) result; expires_at : float }

(** A cached zone cut: where to go directly for names under it. *)
type referral = { addrs : Transport.Address.t list; ref_expires_at : float }

let m_referral_hits = Obs.Metrics.counter "dns.resolver.referral_hits"

type t = {
  stack : Transport.Netstack.stack;
  servers : Transport.Address.t list;
  enable_cache : bool;
  negative_ttl_ms : float;
  cache : entry Cache_tbl.t;
  referrals : referral Name_tbl.t;
  mutable next_id : int;
  mutable hits : int;
  mutable neg_hits : int;
}

(* Cached answers and referrals live at most an hour, whatever their
   TTL. *)
let max_ttl_ms = 3_600_000.0

let create stack ~servers ?(enable_cache = true) ?(negative_ttl_ms = 0.0) () =
  if servers = [] then invalid_arg "Resolver.create: no servers";
  {
    stack;
    servers;
    enable_cache;
    negative_ttl_ms;
    cache = Cache_tbl.create 64;
    referrals = Name_tbl.create 16;
    next_id = 1;
    hits = 0;
    neg_hits = 0;
  }

let min_ttl_ms records =
  List.fold_left
    (fun acc (r : Rr.t) -> Float.min acc (Int32.to_float r.ttl *. 1000.0))
    infinity records

let store t name rtype records =
  if t.enable_cache && records <> [] then begin
    let ttl = Float.min (min_ttl_ms records) max_ttl_ms in
    let expires_at = Sim.Engine.time () +. ttl in
    Cache_tbl.replace t.cache (name, rtype) { outcome = Ok records; expires_at }
  end

let store_negative t name rtype err =
  if t.enable_cache && t.negative_ttl_ms > 0.0 then
    Cache_tbl.replace t.cache (name, rtype)
      { outcome = Error err; expires_at = Sim.Engine.time () +. t.negative_ttl_ms }

let cache_lookup t name rtype =
  if not t.enable_cache then None
  else
    match Cache_tbl.find_opt t.cache (name, rtype) with
    | Some entry when entry.expires_at > Sim.Engine.time () -> Some entry.outcome
    | Some _ ->
        Cache_tbl.remove t.cache (name, rtype);
        None
    | None -> None

let store_referral t cut addrs ttl_ms =
  if t.enable_cache && addrs <> [] then begin
    let ttl = Float.min ttl_ms max_ttl_ms in
    Name_tbl.replace t.referrals cut
      { addrs; ref_expires_at = Sim.Engine.time () +. ttl }
  end

(* Deepest unexpired cached cut covering [name], if any. Expired
   entries are collected during the scan and dropped afterwards (a
   hashtable must not be mutated mid-fold). *)
let referral_lookup t name =
  if not t.enable_cache then None
  else begin
    let now = Sim.Engine.time () in
    let expired = ref [] in
    let best =
      Name_tbl.fold
        (fun cut r best ->
          if r.ref_expires_at <= now then begin
            expired := cut :: !expired;
            best
          end
          else if not (Name.is_subdomain ~of_:cut name) then best
          else
            match best with
            | Some (best_cut, _)
              when Name.label_count best_cut >= Name.label_count cut ->
                best
            | _ -> Some (cut, r.addrs))
        t.referrals None
    in
    List.iter (Name_tbl.remove t.referrals) !expired;
    best
  end

(* Retry a truncated answer over TCP, as resolvers do when a UDP reply
   carries TC. *)
let ask_tcp t server request =
  match Transport.Tcp.connect t.stack server with
  | exception Transport.Tcp.Connection_refused _ -> Error (Rpc_error Rpc.Control.Refused)
  | conn -> (
      Transport.Tcp.send conn request;
      let r =
        match Transport.Tcp.recv_timeout conn 5_000.0 with
        | exception Transport.Tcp.Connection_closed ->
            Error (Rpc_error Rpc.Control.Refused)
        | None -> Error (Rpc_error (Rpc.Control.Timeout { elapsed_ms = 5_000.0 }))
        | Some payload -> (
            match Msg.decode payload with
            | exception Msg.Bad_message m ->
                Error (Rpc_error (Rpc.Control.Protocol_error m))
            | reply -> Ok reply)
      in
      Transport.Tcp.close conn;
      r)

(* One UDP exchange with a server, following the TC bit to TCP. *)
let ask_one t server request =
  match Rpc.Rawrpc.call t.stack ~dst:server request with
  | Error e -> Error (Rpc_error e)
  | Ok payload -> (
      match Msg.decode payload with
      | exception Msg.Bad_message m -> Error (Rpc_error (Rpc.Control.Protocol_error m))
      | reply ->
          if reply.Msg.truncated then ask_tcp t server request else Ok reply)

let fresh_request t name rtype =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  Msg.encode (Msg.query ~id name rtype)

let ask_servers t name rtype =
  let request = fresh_request t name rtype in
  let interpret server reply rest ~try_servers =
    match (reply : Msg.t).rcode with
    | Msg.No_error ->
        if reply.truncated then
          (* TC: the full answer only fits over TCP. *)
          match ask_tcp t server request with
          | Error e -> try_servers e rest
          | Ok full ->
              if full.Msg.answers = [] then Error No_data else Ok full.Msg.answers
        else if reply.answers = [] then Error No_data
        else Ok reply.answers
    | Msg.Nx_domain -> Error Nxdomain
    | rc -> try_servers (Server_error rc) rest
  in
  let rec try_servers last_err = function
    | [] -> Error last_err
    | server :: rest -> (
        match Rpc.Rawrpc.call t.stack ~dst:server request with
        | Error e -> try_servers (Rpc_error e) rest
        | Ok payload -> (
            match Msg.decode payload with
            | exception Msg.Bad_message m ->
                try_servers (Rpc_error (Rpc.Control.Protocol_error m)) rest
            | reply -> interpret server reply rest ~try_servers))
  in
  try_servers (Rpc_error (Rpc.Control.Timeout { elapsed_ms = 0.0 })) t.servers

let query_uncached t name rtype =
  match ask_servers t name rtype with
  | Ok records ->
      store t name rtype records;
      Ok records
  | Error ((Nxdomain | No_data) as err) ->
      store_negative t name rtype err;
      Error err
  | Error _ as e -> e

(* Iterative resolution: walk referrals from the configured roots. *)
let rec iterate t ~depth servers name rtype =
  if depth > 12 then Error (Server_error Msg.Refused)
  else begin
    let request = fresh_request t name rtype in
    let rec try_servers last_err = function
      | [] -> Error last_err
      | server :: rest -> (
          match ask_one t server request with
          | Error e -> try_servers e rest
          | Ok reply -> (
              match reply.Msg.rcode with
              | Msg.Nx_domain -> Error Nxdomain
              | Msg.No_error when reply.Msg.answers <> [] -> Ok reply.Msg.answers
              | Msg.No_error
                when List.exists
                       (fun (rr : Rr.t) ->
                         match rr.rdata with Rr.Ns _ -> true | _ -> false)
                       reply.Msg.authority ->
                  (* NS records in authority: a referral. An SOA there
                     is RFC 2308 negative-TTL info, not a referral. *)
                  follow_referral t ~depth reply name rtype
              | Msg.No_error -> Error No_data
              | rc -> try_servers (Server_error rc) rest))
    in
    try_servers (Rpc_error (Rpc.Control.Timeout { elapsed_ms = 0.0 })) servers
  end

and follow_referral t ~depth (reply : Msg.t) name rtype =
  (* Collect child-server addresses: glue first, then resolve NS names
     from the roots when the referral came without glue. *)
  let glue_addr (ns_rr : Rr.t) =
    match ns_rr.rdata with
    | Rr.Ns target ->
        List.filter_map
          (fun (rr : Rr.t) ->
            match rr.rdata with
            | Rr.A ip when Name.equal rr.name target ->
                Some (Transport.Address.make ip Transport.Address.Well_known.dns)
            | _ -> None)
          reply.additional
    | _ -> []
  in
  let direct = List.concat_map glue_addr reply.authority in
  let addrs =
    if direct <> [] then direct
    else
      List.concat_map
        (fun (ns_rr : Rr.t) ->
          match ns_rr.rdata with
          | Rr.Ns target -> (
              match iterate t ~depth:(depth + 1) t.servers target Rr.T_a with
              | Ok rrs ->
                  List.filter_map
                    (fun (rr : Rr.t) ->
                      match rr.rdata with
                      | Rr.A ip ->
                          Some (Transport.Address.make ip Transport.Address.Well_known.dns)
                      | _ -> None)
                    rrs
              | Error _ -> [])
          | _ -> [])
        reply.authority
  in
  if addrs = [] then Error (Server_error Msg.Serv_fail)
  else begin
    (* Remember the zone cut for the NS TTL, so the next cold resolve
       under it skips straight to the child servers. *)
    (match
       List.filter
         (fun (rr : Rr.t) ->
           match rr.rdata with Rr.Ns _ -> true | _ -> false)
         reply.authority
     with
    | [] -> ()
    | (cut_rr :: _) as ns_rrs ->
        store_referral t cut_rr.Rr.name addrs (min_ttl_ms ns_rrs));
    iterate t ~depth:(depth + 1) addrs name rtype
  end

let query_iterative t name rtype =
  match cache_lookup t name rtype with
  | Some (Ok records) ->
      t.hits <- t.hits + 1;
      Ok records
  | Some (Error err) ->
      t.hits <- t.hits + 1;
      t.neg_hits <- t.neg_hits + 1;
      Error err
  | None -> (
      let result =
        match referral_lookup t name with
        | Some (cut, addrs) -> (
            Obs.Metrics.incr m_referral_hits;
            (* Start at the cached cut; if its servers have gone bad,
               forget the entry and re-walk from the roots. *)
            match iterate t ~depth:1 addrs name rtype with
            | Error (Server_error _ | Rpc_error _) ->
                Name_tbl.remove t.referrals cut;
                iterate t ~depth:0 t.servers name rtype
            | r -> r)
        | None -> iterate t ~depth:0 t.servers name rtype
      in
      match result with
      | Ok records ->
          store t name rtype records;
          Ok records
      | Error ((Nxdomain | No_data) as err) ->
          store_negative t name rtype err;
          Error err
      | Error _ as e -> e)

let query t name rtype =
  match cache_lookup t name rtype with
  | Some (Ok records) ->
      t.hits <- t.hits + 1;
      Ok records
  | Some (Error err) ->
      t.hits <- t.hits + 1;
      t.neg_hits <- t.neg_hits + 1;
      Error err
  | None -> query_uncached t name rtype

let lookup_a t name =
  match query t name Rr.T_a with
  | Error _ as e -> e
  | Ok records -> (
      let rec first = function
        | [] -> Error No_data
        | { Rr.rdata = Rr.A ip; _ } :: _ -> Ok ip
        | _ :: rest -> first rest
      in
      first records)

let seed t name rtype records = store t name rtype records

let cache_hits t = t.hits
let negative_hits t = t.neg_hits
