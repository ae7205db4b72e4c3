type t = { cut : Name.t; ttl_ms : float; servers : Name.t list }

let of_reply (reply : Msg.t) =
  match reply with
  | { rcode = Msg.No_error; answers = []; authority; _ } -> (
      let ns =
        List.filter_map
          (fun (rr : Rr.t) ->
            match rr.rdata with Rr.Ns target -> Some (rr, target) | _ -> None)
          authority
      in
      match ns with
      | [] -> None
      | (first, _) :: _ ->
          Some
            {
              cut = first.Rr.name;
              ttl_ms =
                List.fold_left
                  (fun acc ((rr : Rr.t), _) -> Float.min acc (Int32.to_float rr.ttl *. 1000.0))
                  infinity ns;
              servers = List.map snd ns;
            })
  | _ -> None

let glue r (reply : Msg.t) ~port =
  List.concat_map
    (fun target ->
      List.filter_map
        (fun (rr : Rr.t) ->
          match rr.rdata with
          | Rr.A ip when Name.equal rr.name target -> Some (Transport.Address.make ip port)
          | _ -> None)
        reply.additional)
    r.servers

module Name_tbl = Hashtbl.Make (struct
  type t = Name.t

  let equal = Name.equal
  let hash = Name.hash
end)

type 'a cut = { value : 'a; expires_at : float }
type 'a cuts = 'a cut Name_tbl.t

let cuts () = Name_tbl.create 8

let remember cuts cut ~ttl_ms value =
  Name_tbl.replace cuts cut { value; expires_at = Sim.Engine.time () +. ttl_ms }

(* Expired cuts are collected during the scan and dropped afterwards
   (a hashtable must not be mutated mid-fold). *)
let covering cuts name =
  let now = Sim.Engine.time () in
  let expired = ref [] in
  let best =
    Name_tbl.fold
      (fun cut c best ->
        if c.expires_at <= now then begin
          expired := cut :: !expired;
          best
        end
        else if not (Name.is_subdomain ~of_:cut name) then best
        else
          match best with
          | Some (best_cut, _) when Name.label_count best_cut >= Name.label_count cut -> best
          | _ -> Some (cut, c.value))
      cuts None
  in
  List.iter (Name_tbl.remove cuts) !expired;
  best

let forget cuts cut = Name_tbl.remove cuts cut

let learned cuts =
  Name_tbl.fold (fun cut c acc -> (cut, c.value) :: acc) cuts []
  |> List.sort (fun (a, _) (b, _) -> Name.compare a b)
