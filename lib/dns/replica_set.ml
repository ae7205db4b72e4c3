let m_routed = Obs.Metrics.counter "dns.replica.routed"
let m_fallbacks = Obs.Metrics.counter "dns.replica.primary_fallbacks"
let m_probes = Obs.Metrics.counter "dns.replica.serial_probes"
let m_quarantines = Obs.Metrics.counter "dns.replica.quarantines"

type member = {
  addr : Transport.Address.t;
  mutable mass : float;
  mutable mass_at : float;
  mutable latency_ms : float;  (* EWMA; < 0. = no sample yet *)
  mutable serial : int32 option;
  selected : Obs.Metrics.counter;  (* rolls up into the set's [routed] *)
  mutable quarantined_until : float;
}

type t = {
  stack : Transport.Netstack.stack;
  zone : Name.t;
  primary : Transport.Address.t;
  members : member list;  (* sorted by address *)
  mutable last_probe_ms : float;
  routed : Obs.Metrics.counter;
  primary_fallbacks : Obs.Metrics.counter;
}

let half_life_ms = 2000.
let quarantine_ms = 3000.
let probe_interval_ms = 250.

let create stack ~zone ~primary ~replicas =
  let routed = Obs.Metrics.owned m_routed in
  let members =
    replicas
    |> List.sort_uniq Transport.Address.compare
    |> List.map (fun addr ->
           {
             addr;
             mass = 0.;
             mass_at = 0.;
             latency_ms = -1.;
             serial = None;
             selected = Obs.Metrics.owned routed;
             quarantined_until = 0.;
           })
  in
  {
    stack;
    zone;
    primary;
    members;
    last_probe_ms = Float.neg_infinity;
    routed;
    primary_fallbacks = Obs.Metrics.owned m_fallbacks;
  }

let primary t = t.primary
let metrics t = Obs.Metrics.scope [ t.routed; t.primary_fallbacks ]

let mass_now m ~now =
  if m.mass <= 0. then 0.
  else m.mass *. Float.exp2 (-.(now -. m.mass_at) /. half_life_ms)

(* Combined cost: decayed request mass scaled by observed proximity.
   A fresh member (no mass, no latency sample) costs 1.0 and therefore
   attracts traffic until its real latency is known. *)
let cost m ~now =
  (1. +. mass_now m ~now) *. (1. +. Float.max m.latency_ms 0.)

let find_member t addr =
  List.find_opt (fun m -> Transport.Address.equal m.addr addr) t.members

let note_serial t addr serial =
  match find_member t addr with
  | None -> ()
  | Some m -> (
      match m.serial with
      | Some s when Int32.compare s serial >= 0 -> ()
      | _ -> m.serial <- Some serial)

let note_result t addr ~ok ~latency_ms =
  match find_member t addr with
  | None -> ()
  | Some m ->
      if ok then (
        m.quarantined_until <- 0.;
        m.latency_ms <-
          (if m.latency_ms < 0. then latency_ms
           else (0.8 *. m.latency_ms) +. (0.2 *. latency_ms)))
      else (
        m.quarantined_until <- Sim.Engine.time () +. quarantine_ms;
        Obs.Metrics.incr m_quarantines)

let probe_member t m =
  Obs.Metrics.incr m_probes;
  Option.iter (note_serial t m.addr)
    (Exchange.soa_serial (Rpc.Rawrpc.call t.stack ~dst:m.addr ~timeout:80. ~attempts:1) t.zone)

let refresh_serials t =
  t.last_probe_ms <- Sim.Engine.time ();
  List.iter (probe_member t) t.members

let quarantined m ~now = m.quarantined_until > now

let qualifies ?min_serial m ~now =
  (not (quarantined m ~now))
  &&
  match min_serial with
  | None -> true
  | Some floor -> (
      match m.serial with
      | None -> false
      | Some s -> Int32.compare s floor >= 0)

let candidates ?min_serial t ~now =
  List.filter (qualifies ?min_serial ~now) t.members

let select ?min_serial t =
  let now = Sim.Engine.time () in
  let cands =
    match candidates ?min_serial t ~now with
    | [] when min_serial <> None && t.members <> [] ->
        (* Pinned read with no known-fresh replica: probe serials (rate
           limited) and look again before conceding to the primary. *)
        if now -. t.last_probe_ms >= probe_interval_ms then
          refresh_serials t;
        candidates ?min_serial t ~now
    | cands -> cands
  in
  match cands with
  | [] ->
      Obs.Metrics.incr t.primary_fallbacks;
      t.primary
  | first :: rest ->
      let best =
        List.fold_left
          (fun best m ->
            let c = compare (cost m ~now) (cost best ~now) in
            if c < 0 then m
            else if c = 0 && Transport.Address.compare m.addr best.addr < 0
            then m
            else best)
          first rest
      in
      best.mass <- mass_now best ~now +. 1.;
      best.mass_at <- now;
      Obs.Metrics.incr best.selected;
      best.addr

type member_stats = {
  addr : Transport.Address.t;
  load : float;
  latency_ms : float;
  serial : int32 option;
  selected : int;
  quarantined : bool;
}

let stats t =
  let now = Sim.Engine.time () in
  List.map
    (fun (m : member) ->
      {
        addr = m.addr;
        load = mass_now m ~now;
        latency_ms = m.latency_ms;
        serial = m.serial;
        selected = Obs.Metrics.value m.selected;
        quarantined = quarantined m ~now;
      })
    t.members
