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

type entry = { outcome : (Rr.t list, error) result; expires_at : float }

let m_cache_hits = Obs.Metrics.counter "dns.resolver.cache_hits"
let m_negative_hits = Obs.Metrics.counter "dns.resolver.negative_hits"
let m_referral_hits = Obs.Metrics.counter "dns.resolver.referral_hits"

type t = {
  stack : Transport.Netstack.stack;
  servers : Transport.Address.t list;
  enable_cache : bool;
  negative_ttl_ms : float;
  cache : entry Cache_tbl.t;
  referrals : Transport.Address.t list Referral.cuts;
      (* where to go directly for names under a cut *)
  cache_hits : Obs.Metrics.counter;
  negative_hits : Obs.Metrics.counter;
  referral_hits : Obs.Metrics.counter;
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
    referrals = Referral.cuts ();
    cache_hits = Obs.Metrics.owned m_cache_hits;
    negative_hits = Obs.Metrics.owned m_negative_hits;
    referral_hits = Obs.Metrics.owned m_referral_hits;
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

(* The one cached read: an unexpired answer, positive or negative, is
   counted and returned; anything else goes to [miss]. *)
let cached t name rtype ~miss =
  match if t.enable_cache then Cache_tbl.find_opt t.cache (name, rtype) else None with
  | Some entry when entry.expires_at > Sim.Engine.time () ->
      Obs.Metrics.incr t.cache_hits;
      if Result.is_error entry.outcome then Obs.Metrics.incr t.negative_hits;
      entry.outcome
  | Some _ ->
      Cache_tbl.remove t.cache (name, rtype);
      miss ()
  | None -> miss ()

(* Cache what a resolution found: answers for their TTL, a definite
   absence for the negative TTL. *)
let remember t name rtype result =
  (match result with
  | Ok records -> store t name rtype records
  | Error ((Nxdomain | No_data) as err) -> store_negative t name rtype err
  | Error _ -> ());
  result

(* One query to a server over UDP; a reply with TC set is asked again
   over TCP, as resolvers do. *)
let ask_one t server name rtype =
  Exchange.call_tc t.stack ~dst:server ~tcp_timeout:5_000.0 (fun id -> Msg.query ~id name rtype)
  |> Result.map_error (fun e -> Rpc_error e)

(* The configured servers in order, until one answers. *)
let ask_servers t name rtype =
  let rec try_servers last_err = function
    | [] -> Error last_err
    | server :: rest -> (
        match ask_one t server name rtype with
        | Error e -> try_servers e rest
        | Ok { Msg.rcode = Msg.No_error; answers = []; _ } -> Error No_data
        | Ok { Msg.rcode = Msg.No_error; answers; _ } -> Ok answers
        | Ok { Msg.rcode = Msg.Nx_domain; _ } -> Error Nxdomain
        | Ok { Msg.rcode = rc; _ } -> try_servers (Server_error rc) rest)
  in
  try_servers (Rpc_error (Rpc.Control.Timeout { elapsed_ms = 0.0 })) t.servers

(* Iterative resolution: walk referrals from the configured roots. *)
let rec iterate t ~depth servers name rtype =
  if depth > 12 then Error (Server_error Msg.Refused)
  else begin
    let rec try_servers last_err = function
      | [] -> Error last_err
      | server :: rest -> (
          match ask_one t server name rtype with
          | Error e -> try_servers e rest
          | Ok reply -> (
              match reply.Msg.rcode with
              | Msg.Nx_domain -> Error Nxdomain
              | Msg.No_error when reply.Msg.answers <> [] -> Ok reply.Msg.answers
              | Msg.No_error -> (
                  match Referral.of_reply reply with
                  | Some referral -> follow_referral t ~depth reply referral name rtype
                  | None -> Error No_data)
              | rc -> try_servers (Server_error rc) rest))
    in
    try_servers (Rpc_error (Rpc.Control.Timeout { elapsed_ms = 0.0 })) servers
  end

and follow_referral t ~depth reply (referral : Referral.t) name rtype =
  (* Collect child-server addresses: glue first, then resolve NS names
     from the roots when the referral came without glue. *)
  let port = Transport.Address.Well_known.dns in
  let addrs =
    match Referral.glue referral reply ~port with
    | [] ->
        List.concat_map
          (fun target ->
            match iterate t ~depth:(depth + 1) t.servers target Rr.T_a with
            | Ok rrs ->
                List.filter_map
                  (fun (rr : Rr.t) ->
                    match rr.rdata with
                    | Rr.A ip -> Some (Transport.Address.make ip port)
                    | _ -> None)
                  rrs
            | Error _ -> [])
          referral.servers
    | direct -> direct
  in
  if addrs = [] then Error (Server_error Msg.Serv_fail)
  else begin
    (* Remember the zone cut for the NS TTL, so the next cold resolve
       under it skips straight to the child servers. *)
    if t.enable_cache then
      Referral.remember t.referrals referral.cut
        ~ttl_ms:(Float.min referral.ttl_ms max_ttl_ms)
        addrs;
    iterate t ~depth:(depth + 1) addrs name rtype
  end

let query_iterative t name rtype =
  cached t name rtype ~miss:(fun () ->
      remember t name rtype
        (match if t.enable_cache then Referral.covering t.referrals name else None with
        | Some (cut, addrs) -> (
            Obs.Metrics.incr t.referral_hits;
            (* Start at the cached cut; if its servers have gone bad,
               forget the entry and re-walk from the roots. *)
            match iterate t ~depth:1 addrs name rtype with
            | Error (Server_error _ | Rpc_error _) ->
                Referral.forget t.referrals cut;
                iterate t ~depth:0 t.servers name rtype
            | r -> r)
        | None -> iterate t ~depth:0 t.servers name rtype))

let query t name rtype =
  cached t name rtype ~miss:(fun () -> remember t name rtype (ask_servers t name rtype))

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

let metrics t = Obs.Metrics.scope [ t.cache_hits; t.negative_hits; t.referral_hits ]
