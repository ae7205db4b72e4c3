(* Reference model of the hot-name ranking: Dns.Hotrank as first
   written, kept so properties can hold the production ranking to it.
   Each group is a Hashtbl of mutable entries; [top] folds the table
   twice (collect the TTL-expired, then score the rest) and sorts the
   whole scored list to keep k, and eviction folds the table for the
   lowest-ranked entry. *)

module Name = Dns.Name

type strategy = Dns.Hotrank.strategy =
  | Sliding_count of { window_ms : float }
  | Decayed of { half_life_ms : float }

type entry = {
  mutable score : float;  (* window count (Sliding) / decayed mass (Decayed) *)
  mutable last_ms : float;  (* instant of the most recent sighting *)
  mutable ttl_ms : float;  (* freshness horizon from that sighting's rrset *)
}

type t = {
  strategy : strategy;
  default_ttl_ms : float;
  capacity : int;
  groups : (string, (Name.t, entry) Hashtbl.t) Hashtbl.t;
}

let create ?(default_ttl_ms = 3_600_000.0) ?(capacity = 4096) ~strategy () =
  if capacity <= 0 then invalid_arg "Hotrank.create: capacity must be positive";
  (match strategy with
  | Sliding_count { window_ms } when window_ms <= 0.0 ->
      invalid_arg "Hotrank.create: window_ms must be positive"
  | Decayed { half_life_ms } when half_life_ms <= 0.0 ->
      invalid_arg "Hotrank.create: half_life_ms must be positive"
  | _ -> ());
  { strategy; default_ttl_ms; capacity; groups = Hashtbl.create 4 }

let strategy t = t.strategy

let group_table t group =
  match Hashtbl.find_opt t.groups group with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 64 in
      Hashtbl.replace t.groups group tbl;
      tbl

let expired e ~now_ms = now_ms -. e.last_ms > e.ttl_ms

(* The score a ranking pass sees at [now_ms]: the sliding count is
   taken at face value inside its window; the decayed mass is brought
   forward from the last sighting. *)
let current_score t e ~now_ms =
  match t.strategy with
  | Sliding_count { window_ms } ->
      if now_ms -. e.last_ms > window_ms then None else Some e.score
  | Decayed { half_life_ms } ->
      Some (e.score *. Float.exp2 (-.(now_ms -. e.last_ms) /. half_life_ms))

let live_score t e ~now_ms =
  if expired e ~now_ms then None else current_score t e ~now_ms

(* Deterministic eviction when a group's table is full: drop the entry
   with the lowest current score, highest name last among equals. *)
let evict_one t tbl ~now_ms =
  let victim =
    Hashtbl.fold
      (fun name e acc ->
        let s =
          match live_score t e ~now_ms with Some s -> s | None -> -1.0
        in
        match acc with
        | None -> Some (name, s)
        | Some (_, best_s) when s < best_s -> Some (name, s)
        | Some (best_n, best_s) when s = best_s && Name.compare name best_n > 0
          ->
            Some (name, s)
        | acc -> acc)
      tbl None
  in
  match victim with None -> () | Some (name, _) -> Hashtbl.remove tbl name

let note t ~group ~now_ms ?ttl_ms name =
  let ttl_ms = Option.value ~default:t.default_ttl_ms ttl_ms in
  let tbl = group_table t group in
  match Hashtbl.find_opt tbl name with
  | Some e ->
      (match t.strategy with
      | Sliding_count { window_ms } ->
          if now_ms -. e.last_ms > window_ms then e.score <- 0.0;
          e.score <- e.score +. 1.0
      | Decayed { half_life_ms } ->
          e.score <-
            (e.score *. Float.exp2 (-.(now_ms -. e.last_ms) /. half_life_ms))
            +. 1.0);
      e.last_ms <- now_ms;
      e.ttl_ms <- ttl_ms
  | None ->
      if Hashtbl.length tbl >= t.capacity then evict_one t tbl ~now_ms;
      Hashtbl.replace tbl name { score = 1.0; last_ms = now_ms; ttl_ms }

let score t ~group ~now_ms name =
  match Hashtbl.find_opt t.groups group with
  | None -> None
  | Some tbl -> (
      match Hashtbl.find_opt tbl name with
      | None -> None
      | Some e -> live_score t e ~now_ms)

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let rank scored ~k =
  List.sort
    (fun (n1, s1) (n2, s2) ->
      if s1 <> s2 then compare s2 s1 else Name.compare n1 n2)
    scored
  |> take k

let top t ~group ~now_ms ~k =
  match Hashtbl.find_opt t.groups group with
  | None -> []
  | Some tbl ->
      (* Opportunistic GC: TTL-expired entries are dead weight and
         would only distort capacity eviction; collect them here. *)
      let dead =
        Hashtbl.fold
          (fun name e acc -> if expired e ~now_ms then name :: acc else acc)
          tbl []
      in
      List.iter (Hashtbl.remove tbl) dead;
      let scored =
        Hashtbl.fold
          (fun name e acc ->
            match live_score t e ~now_ms with
            | Some s -> (name, s) :: acc
            | None -> acc)
          tbl []
      in
      rank scored ~k

let top_merged t ~now_ms ~k =
  let best = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _group tbl ->
      Hashtbl.iter
        (fun name e ->
          match live_score t e ~now_ms with
          | None -> ()
          | Some s -> (
              match Hashtbl.find_opt best name with
              | Some s' when s' >= s -> ()
              | _ -> Hashtbl.replace best name s))
        tbl)
    t.groups;
  rank (Hashtbl.fold (fun name s acc -> (name, s) :: acc) best []) ~k

let groups t =
  List.sort String.compare (Hashtbl.fold (fun g _ acc -> g :: acc) t.groups [])

let clear t = Hashtbl.reset t.groups
