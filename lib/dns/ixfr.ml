type response =
  | Unchanged of Rr.soa
  | Deltas of Rr.soa * Journal.change list
  | Full of Rr.t list

let m_served = Obs.Metrics.counter "dns.ixfr.served"
let m_unchanged = Obs.Metrics.counter "dns.ixfr.unchanged"
let m_fallbacks = Obs.Metrics.counter "dns.ixfr.fallbacks"
let m_changes_sent = Obs.Metrics.counter "dns.ixfr.changes_sent"

(* --- server side --- *)

let request_serial (request : Msg.t) = Rr.first_serial request.Msg.authority

(* A change as an answer record: additions keep C_in, deletions are
   marked C_none — the same marker class the update encoding uses. *)
let rr_of_change = function
  | Journal.Put rr -> rr
  | Journal.Del rr -> { rr with Rr.rclass = Rr.C_none }

let answers_for_zone zone ~serial =
  if Int32.equal serial (Zone.serial zone) then begin
    Obs.Metrics.incr m_unchanged;
    `Answers [ Zone.soa_rr zone ]
  end
  else
    match Journal.since (Zone.journal zone) ~serial with
    | None ->
        Obs.Metrics.incr m_fallbacks;
        `Fallback
    | Some deltas ->
        let changes =
          List.concat_map (fun d -> d.Journal.changes) deltas
        in
        Obs.Metrics.incr m_served;
        Obs.Metrics.add m_changes_sent (List.length changes);
        let soa = Zone.soa_rr zone in
        `Answers ((soa :: List.map rr_of_change changes) @ [ soa ])

(* --- client side --- *)

(* Normalize a deletion marker back to an ordinary record so replicas
   re-journal and re-serve it cleanly. *)
let change_of_rr (rr : Rr.t) =
  match rr.rclass with
  | Rr.C_none -> Journal.Del { rr with rclass = Rr.C_in }
  | Rr.C_in | Rr.C_any -> Journal.Put rr

let rec split_last = function
  | [] -> invalid_arg "split_last"
  | [ x ] -> ([], x)
  | x :: rest ->
      let init, last = split_last rest in
      (x :: init, last)

let parse_answers answers =
  match answers with
  | { Rr.rdata = Rr.Soa soa; _ } :: rest -> (
      match rest with
      | [] -> Ok (Unchanged soa)
      | _ -> (
          let init, last = split_last rest in
          match last.Rr.rdata with
          | Rr.Soa s when Int32.equal s.Rr.serial soa.Rr.serial ->
              Ok (Deltas (soa, List.map change_of_rr init))
          | _ -> Ok (Full answers)))
  | _ -> Error "IXFR response does not start with an SOA"

let serial_soa origin serial =
  Rr.make origin
    (Rr.Soa
       {
         Rr.mname = origin;
         rname = origin;
         serial;
         refresh = 0l;
         retry = 0l;
         expire = 0l;
         minimum = 0l;
       })

let fetch stack ~server ~zone ~serial =
  Axfr.transfer stack ~server
    ~on_answers:(fun answers ->
      Result.map_error (fun m -> Axfr.Transfer_failed m) (parse_answers answers))
    (fun id ->
      {
        (Msg.query ~id zone Rr.T_ixfr) with
        Msg.recursion_desired = false;
        (* the serial we hold *)
        authority = [ serial_soa zone serial ];
      })
