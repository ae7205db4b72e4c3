open Transport

let m_notify_deregistered = Obs.Metrics.counter "dns.notify.deregistered"
let m_queries = Obs.Metrics.counter "dns.server.queries"

type t = {
  stack : Netstack.stack;
  port : int;
  service_overhead_ms : float;
  per_answer_ms : float;
  allow_update : bool;
  update_acl : Address.ip list option;
  mutable zone_list : Zone.t list;
  mutable stop_udp : (unit -> unit) option;
  mutable tcp_listener : Tcp.listener option;
  mutable running : bool;
  queries : Obs.Metrics.counter;
  mutable synthesizer : (Msg.question -> Rr.t list option) option;
  mutable notify_targets : Address.t list;
  mutable on_notify : (zone:Name.t -> serial:int32 option -> unit) list;
  notify_strikes : (Address.t, int) Hashtbl.t;
  hot : Hotrank.t;
}

let create stack ?(port = Address.Well_known.dns) ?(service_overhead_ms = 0.0)
    ?(per_answer_ms = 0.0) ?(allow_update = false) ?update_acl
    ?(hot_ranking = Hotrank.Decayed { half_life_ms = 300_000.0 }) () =
  {
    stack;
    port;
    service_overhead_ms;
    per_answer_ms;
    allow_update;
    update_acl;
    zone_list = [];
    stop_udp = None;
    tcp_listener = None;
    running = false;
    queries = Obs.Metrics.owned m_queries;
    synthesizer = None;
    notify_targets = [];
    on_notify = [];
    notify_strikes = Hashtbl.create 8;
    hot = Hotrank.create ~strategy:hot_ranking ();
  }

let addr t = Address.make (Netstack.ip t.stack) t.port
let stack t = t.stack

let add_zone t zone =
  if List.exists (fun z -> Name.equal (Zone.origin z) (Zone.origin zone)) t.zone_list
  then invalid_arg "Dns server: duplicate zone";
  t.zone_list <- zone :: t.zone_list

let zones t = t.zone_list

(* Longest-match zone for a name. *)
let find_zone t name =
  List.fold_left
    (fun best zone ->
      if Zone.in_zone zone name then
        match best with
        | Some b when Name.label_count (Zone.origin b) >= Name.label_count (Zone.origin zone)
          ->
            best
        | _ -> Some zone
      else best)
    None t.zone_list

(* The outcome of answering one question. *)
type answer_outcome =
  | Answers of Rr.t list
  | Referral of Rr.t list * Rr.t list (* NS rrset at the cut, glue A records *)
  | Negative of Msg.rcode

(* Is [qname] at or below a zone cut (an interior name holding NS
   records)? Walk from the query name up to, but excluding, the
   origin. A query for the NS rrset at the cut itself is a referral
   too, as in BIND: the child is authoritative for it. *)
let find_delegation zone db qname =
  let origin = Zone.origin zone in
  let rec walk name =
    if Name.equal name origin then None
    else
      match Db.lookup db name Rr.T_ns with
      | [] -> ( match Name.parent name with Some p -> walk p | None -> None)
      | ns_rrs ->
          let glue =
            List.concat_map
              (fun (rr : Rr.t) ->
                match rr.rdata with
                | Rr.Ns target -> Db.lookup db target Rr.T_a
                | _ -> [])
              ns_rrs
          in
          Some (ns_rrs, glue)
  in
  walk qname

let set_synthesizer t f = t.synthesizer <- Some f

(* NOTIFY subscriptions: the primary is configured with its
   secondaries / subscribers (BIND's also-notify), and pushes the new
   SOA to each on every serial advance. *)
let register_notify t addr =
  Hashtbl.remove t.notify_strikes addr;
  if not (List.mem addr t.notify_targets) then
    t.notify_targets <- addr :: t.notify_targets

let unregister_notify t addr =
  Hashtbl.remove t.notify_strikes addr;
  t.notify_targets <- List.filter (fun a -> a <> addr) t.notify_targets

let notify_targets t = t.notify_targets
let add_notify_handler t f = t.on_notify <- t.on_notify @ [ f ]

(* Subscriber liveness GC: a target that fails to ack
   [notify_strike_limit] consecutive pushes is presumed gone and
   deregistered (it can re-register any time). Any successful ack
   clears the slate. *)
let notify_strike_limit = 3

let note_notify_result t target ok =
  if ok then Hashtbl.remove t.notify_strikes target
  else begin
    let strikes =
      1 + Option.value ~default:0 (Hashtbl.find_opt t.notify_strikes target)
    in
    if strikes >= notify_strike_limit then begin
      unregister_notify t target;
      Obs.Metrics.incr m_notify_deregistered
    end
    else Hashtbl.replace t.notify_strikes target strikes
  end

(* Fan-out to this server's subscribers, bounded by {!Notify.push}'s
   worker pool so a serial advance wakes a bounded number of
   simultaneous IXFR pulls at this tree level; ack outcomes feed the
   subscriber liveness GC. Used by the dynamic-update path and by
   chained secondaries forwarding a pull downstream. *)
let notify_downstream t ~zone =
  Notify.push t.stack ~zone ~on_result:(note_notify_result t) t.notify_targets

(* {2 Hot-name tracking}

   Recent positive A-record answers per name, feeding the bundle
   synthesizer's resolve-tail prefetch ({!Hns.Meta_bundle}): the
   names this server has been answering addresses for lately are the
   ones worth piggybacking. Scoring is delegated to {!Hotrank}
   (exponentially-decayed by default; the naive sliding count stays
   selectable for comparison). Entries are kept per answering zone —
   the server-side stand-in for the requesting context, since every
   context funnels its A queries through its own zone — and carry the
   answered rrset's TTL so stale hints age out of the ranking. *)

let hot_group t qname =
  match find_zone t qname with
  | Some zone -> Name.to_string (Zone.origin zone)
  | None -> ""

let note_hot t (q : Msg.question) answers =
  if q.qtype = Rr.T_a && answers <> [] then begin
    let now = Sim.Engine.time () in
    let ttl_ms =
      List.fold_left
        (fun acc (rr : Rr.t) -> Float.min acc (Int32.to_float rr.ttl *. 1000.0))
        Float.infinity answers
    in
    let ttl_ms = if Float.is_finite ttl_ms then Some ttl_ms else None in
    Hotrank.note t.hot ~group:(hot_group t q.qname) ~now_ms:now ?ttl_ms q.qname
  end

(* Hint keep-alive: once a name ships as a prefetch hint, agents
   answer it from cache and this server stops seeing its demand —
   while every un-hinted name keeps scoring a cache-refill sighting
   per agent per refresh cycle. Re-noting a hint as it is served
   cancels that handicap, so the residual ordering reflects real
   client demand rather than which names happen to be cached. *)
let note_hot_name t ?ttl_ms name =
  Hotrank.note t.hot ~group:(hot_group t name) ~now_ms:(Sim.Engine.time ()) ?ttl_ms
    name

let hot_ranked t ?group ~k () =
  let now_ms = Sim.Engine.time () in
  match group with
  | Some group -> Hotrank.top t.hot ~group ~now_ms ~k
  | None -> Hotrank.top_merged t.hot ~now_ms ~k

(* Answer one question, following CNAME chains inside our own data and
   emitting referrals at zone cuts. *)
let answer_question_db t (q : Msg.question) =
  match find_zone t q.qname with
  | None -> Negative Msg.Refused
  | Some zone -> (
      let db = Zone.db zone in
      match find_delegation zone db q.qname with
      | Some (ns_rrs, glue) -> Referral (ns_rrs, glue)
      | None ->
          let rec chase name depth acc =
            if depth > 8 then List.rev acc
            else
              match Db.lookup db name q.qtype with
              | [] -> (
                  (* No direct answer: follow a CNAME if present and the
                     query was not itself for CNAME. *)
                  match Db.lookup db name Rr.T_cname with
                  | [ ({ rdata = Rr.Cname target; _ } as cname_rr) ]
                    when q.qtype <> Rr.T_cname ->
                      chase target (depth + 1) (cname_rr :: acc)
                  | _ -> List.rev acc)
              | rrs -> List.rev_append acc rrs
          in
          let answers =
            if q.qtype = Rr.T_soa && Name.equal q.qname (Zone.origin zone) then
              [ Rr.make ~ttl:(Zone.soa zone).Rr.minimum q.qname (Rr.Soa (Zone.soa zone)) ]
            else chase q.qname 0 []
          in
          if answers <> [] then Answers answers
          else if Db.has_name db q.qname || Name.equal q.qname (Zone.origin zone) then
            Answers [] (* name exists, no data of this type *)
          else Negative Msg.Nx_domain)

(* Synthesized answers (registered views over the zone data, e.g. the
   HNS meta bundle) take precedence; a [None] from the synthesizer
   falls through to the ordinary database walk. *)
let answer_question t q =
  match (match t.synthesizer with Some f -> f q | None -> None) with
  | Some rrs -> Answers rrs
  | None -> answer_question_db t q

(* Is [name] strictly below a zone cut? Such names are occluded: their
   data lives with the delegated child, so accepting an update for
   them here would insert records no query can reach (queries referral
   out at the cut). Names {e at} the cut stay updatable — that is how
   the delegation's own NS records are maintained. *)
let occluded zone db name =
  let origin = Zone.origin zone in
  let rec walk n =
    if Name.equal n origin then false
    else
      Db.lookup db n Rr.T_ns <> []
      || match Name.parent n with Some p -> walk p | None -> false
  in
  (not (Name.equal name origin))
  && (match Name.parent name with Some p -> walk p | None -> false)

let update_permitted t src =
  match t.update_acl with
  | None -> true
  | Some acl -> List.exists (fun ip -> Int32.equal ip src.Address.ip) acl

let apply_update t (request : Msg.t) =
  match request.questions with
  | [ { qname = zone_name; _ } ] -> (
      match find_zone t zone_name with
      | Some zone when Name.equal (Zone.origin zone) zone_name ->
          if not t.allow_update then Msg.Refused
          else begin
            let db = Zone.db zone in
            let in_zone op_name = Zone.in_zone zone op_name in
            let op_ok n = in_zone n && not (occluded zone db n) in
            let ok =
              List.for_all
                (fun op ->
                  match (op : Msg.update_op) with
                  | Msg.Add rr -> op_ok rr.Rr.name
                  | Msg.Delete_rrset (n, _) | Msg.Delete_rr (n, _) | Msg.Delete_name n
                    ->
                      op_ok n)
                request.updates
            in
            if not ok then Msg.Not_zone
            else begin
              (* Apply each op while recording the concrete records it
                 put or deleted: deletions are resolved against the
                 database state at that point in the sequence, so the
                 journal entry replays to exactly this transition. *)
              let rev_changes = ref [] in
              let note c = rev_changes := c :: !rev_changes in
              List.iter
                (fun op ->
                  match (op : Msg.update_op) with
                  | Msg.Add rr ->
                      Db.add db rr;
                      note (Journal.Put rr)
                  | Msg.Delete_rrset (n, ty) ->
                      List.iter (fun rr -> note (Journal.Del rr)) (Db.lookup db n ty);
                      Db.remove_rrset db n ty
                  | Msg.Delete_rr (n, rdata) ->
                      List.iter
                        (fun (rr : Rr.t) ->
                          if Rr.equal_rdata rr.rdata rdata then note (Journal.Del rr))
                        (Db.lookup db n (Rr.rdata_type rdata));
                      Db.remove_rr db n rdata
                  | Msg.Delete_name n ->
                      List.iter (fun rr -> note (Journal.Del rr)) (Db.lookup db n Rr.T_any);
                      Db.remove_name db n)
                request.updates;
              let from_serial = Zone.serial zone in
              Zone.bump_serial zone;
              Zone.record_delta zone ~from_serial
                ~to_serial:(Zone.serial zone)
                (List.rev !rev_changes);
              (* Push-triggered propagation: tell every registered
                 secondary / subscriber the serial moved; ack outcomes
                 feed the liveness GC. *)
              notify_downstream t ~zone;
              Msg.No_error
            end
          end
      | Some _ | None -> Msg.Not_zone)
  | _ -> Msg.Form_err

(* RFC 2308: negative (and no-data) responses carry the zone's SOA in
   the authority section so resolvers can derive the negative-cache
   TTL from the SOA minimum instead of a local constant. *)
let negative_authority t qname =
  match find_zone t qname with Some zone -> [ Zone.soa_rr zone ] | None -> []

let handle ?src t (request : Msg.t) : Msg.t =
  match request.opcode with
  | Msg.Update ->
      let rcode =
        match src with
        | Some s when not (update_permitted t s) -> Msg.Refused
        | Some _ | None -> apply_update t request
      in
      let ack = Msg.update_ack ~rcode ~request () in
      (* A successful ack carries the zone's new SOA so the updater
         learns the serial its write landed at (the read-your-writes
         floor a routing client pins replica reads to). *)
      if rcode = Msg.No_error then
        match request.questions with
        | [ { qname; _ } ] -> (
            match find_zone t qname with
            | Some zone -> { ack with Msg.answers = [ Zone.soa_rr zone ] }
            | None -> ack)
        | _ -> ack
      else ack
  | Msg.Notify ->
      (match request.questions with
      | [ { qname; _ } ] ->
          let serial = Rr.first_serial request.answers in
          List.iter (fun f -> f ~zone:qname ~serial) t.on_notify
      | _ -> ());
      Msg.notify_ack ~request
  | Msg.Query -> (
      Obs.Metrics.incr t.queries;
      match request.questions with
      | [ q ] -> (
          match answer_question t q with
          | Answers answers when answers <> [] ->
              note_hot t q answers;
              Msg.response ~request answers
          | Answers _ ->
              {
                (Msg.response ~request []) with
                Msg.authority = negative_authority t q.qname;
              }
          | Referral (ns_rrs, glue) ->
              {
                (Msg.response ~authoritative:false ~request []) with
                Msg.authority = ns_rrs;
                additional = glue;
              }
          | Negative rcode ->
              {
                (Msg.response ~rcode ~request []) with
                Msg.authority = negative_authority t q.qname;
              })
      | _ -> Msg.response ~rcode:Msg.Form_err ~request [])

let marshal_cost t n_answers = t.per_answer_ms *. float_of_int n_answers

let start t =
  if t.running then invalid_arg "Dns server: already running";
  t.running <- true;
  (* UDP query/update service. *)
  let udp_handler ~src payload =
    match Msg.decode payload with
    | exception Msg.Bad_message _ -> None
    | request ->
        let reply, bytes = Msg.encode_for_udp (handle ~src t request) in
        let cost = marshal_cost t (Msg.answer_count reply) in
        if cost > 0.0 then Sim.Engine.sleep cost;
        Some bytes
  in
  let stop_udp =
    Rpc.Rawrpc.serve_udp (Udp.bind t.stack ~port:t.port)
      ~name:(Printf.sprintf "bind:%d" t.port)
      ~service_overhead_ms:t.service_overhead_ms ~concurrent:false udp_handler
  in
  t.stop_udp <- Some stop_udp;
  (* TCP zone-transfer service. *)
  let listener = Tcp.listen t.stack ~port:t.port in
  t.tcp_listener <- Some listener;
  Sim.Engine.spawn_child ~name:(Printf.sprintf "bind-axfr:%d" t.port) (fun () ->
      while t.running do
        let conn = Tcp.accept listener in
        Sim.Engine.spawn_child ~name:"bind-axfr:conn" (fun () ->
            (match Tcp.recv conn with
            | exception Tcp.Connection_closed -> ()
            | payload -> (
                if t.service_overhead_ms > 0.0 then
                  Sim.Engine.sleep t.service_overhead_ms;
                match Msg.decode payload with
                | exception Msg.Bad_message _ -> ()
                | request -> (
                    match request.questions with
                    | [ { qname; qtype = Rr.T_axfr } ] -> (
                        match find_zone t qname with
                        | Some zone when Name.equal (Zone.origin zone) qname ->
                            let records = Zone.axfr_records zone in
                            let cost = marshal_cost t (List.length records) in
                            if cost > 0.0 then Sim.Engine.sleep cost;
                            Tcp.send conn
                              (Msg.encode (Msg.response ~request records))
                        | Some _ | None ->
                            Tcp.send conn
                              (Msg.encode (Msg.response ~rcode:Msg.Refused ~request [])))
                    | [ { qname; qtype = Rr.T_ixfr } ] -> (
                        match find_zone t qname with
                        | Some zone when Name.equal (Zone.origin zone) qname ->
                            (* A request without a parseable serial can
                               never match the journal chain and falls
                               back to the full payload below. *)
                            let serial =
                              Option.value ~default:(-1l)
                                (Ixfr.request_serial request)
                            in
                            let records =
                              match Ixfr.answers_for_zone zone ~serial with
                              | `Answers a -> a
                              | `Fallback -> Zone.axfr_records zone
                            in
                            let cost = marshal_cost t (List.length records) in
                            if cost > 0.0 then Sim.Engine.sleep cost;
                            Tcp.send conn
                              (Msg.encode (Msg.response ~request records))
                        | Some _ | None ->
                            Tcp.send conn
                              (Msg.encode (Msg.response ~rcode:Msg.Refused ~request [])))
                    | _ ->
                        (* Ordinary queries over TCP get the UDP treatment. *)
                        Tcp.send conn (Msg.encode (handle t request)))));
            Tcp.close conn)
      done)

let stop t =
  t.running <- false;
  (match t.stop_udp with Some f -> f () | None -> ());
  (match t.tcp_listener with Some l -> Tcp.close_listener l | None -> ());
  t.stop_udp <- None;
  t.tcp_listener <- None

let notify_listener stack ~name ~zone on_notify =
  let port = Netstack.alloc_udp_port stack in
  let stop =
    Rpc.Rawrpc.serve_udp (Udp.bind stack ~port) ~name ~service_overhead_ms:0.0
      ~concurrent:false (fun ~src:_ payload ->
        match Msg.decode payload with
        | exception Msg.Bad_message _ -> None
        | request ->
            if
              request.opcode = Msg.Notify
              && List.exists (fun (q : Msg.question) -> Name.equal q.qname zone) request.questions
            then begin
              on_notify (Rr.first_serial request.answers);
              Some (Msg.encode (Msg.notify_ack ~request))
            end
            else None)
  in
  (Address.make (Netstack.ip stack) port, stop)

let queries_served t = Obs.Metrics.value t.queries
let metrics t = Obs.Metrics.scope [ t.queries ]

let delegation_for t qname =
  match find_zone t qname with
  | None -> None
  | Some zone -> find_delegation zone (Zone.db zone) qname
