type mode = Axfr | Ixfr

type t = {
  server : Server.t;
  primary : Transport.Address.t;
  zone_name : Name.t;
  mode : mode;
  refresh_ms : float;
  chain_depth : int;
  zone : Zone.t; (* our replica, registered with [server] *)
  mutable running : bool;
  fresh_checks : Obs.Metrics.counter;
  full_transfers : Obs.Metrics.counter;
  ixfr_applied : Obs.Metrics.counter;
  delta_records : Obs.Metrics.counter;
  notify_kicks : Obs.Metrics.counter;
}

let m_ixfr_applied = Obs.Metrics.counter "dns.secondary.ixfr_applied"
let m_full_transfers = Obs.Metrics.counter "dns.secondary.full_transfers"
let m_delta_records = Obs.Metrics.counter "dns.secondary.delta_records"
let m_notify_kicks = Obs.Metrics.counter "dns.secondary.notify_kicks"
let m_fresh_checks = Obs.Metrics.counter "dns.secondary.fresh_checks"

(* Deepest replica chain attached in this process: 1 = directly under
   the primary, 2 = fed by such a replica, and so on. *)
let g_chain_depth = Obs.Metrics.gauge "dns.secondary.chain_depth"

let split_transfer zone_name records =
  match records with
  | { Rr.rdata = Rr.Soa soa; name; _ } :: data when Name.equal name zone_name ->
      Ok (soa, data)
  | _ -> Error "transfer did not begin with the zone's SOA"

let fetch t =
  match Axfr.fetch (Server.stack t.server) ~server:t.primary ~zone:t.zone_name with
  | Error e -> Error (Format.asprintf "%a" Axfr.pp_error e)
  | Ok records -> split_transfer t.zone_name records

(* Replace the replica's contents with a fresh transfer. *)
let adopt t (soa, data) =
  let db = Zone.db t.zone in
  Db.clear db;
  List.iter (Db.add db) data;
  Zone.set_soa t.zone soa;
  Obs.Metrics.incr t.full_transfers

(* Advance the replica by journal deltas instead of re-transferring. *)
let apply_deltas t (soa : Rr.soa) changes =
  Zone.apply_delta t.zone
    {
      Journal.from_serial = Zone.serial t.zone;
      to_serial = soa.Rr.serial;
      changes;
    };
  (* The incremental payload carries only the serial transition; adopt
     the rest of the pushed SOA (refresh/expire may have changed). *)
  Zone.set_soa t.zone soa;
  Obs.Metrics.incr t.ixfr_applied;
  Obs.Metrics.add t.delta_records (List.length changes)

let primary_serial t =
  Exchange.soa_serial (Rpc.Rawrpc.call (Server.stack t.server) ~dst:t.primary) t.zone_name

let pull t =
  let before = Zone.serial t.zone in
  (match t.mode with
  | Axfr -> (
      match fetch t with
      | Ok transfer -> adopt t transfer
      | Error _ -> () (* transient failure; retry next cycle *))
  | Ixfr -> (
      match
        Ixfr.fetch (Server.stack t.server) ~server:t.primary ~zone:t.zone_name
          ~serial:(Zone.serial t.zone)
      with
      | Ok (Ixfr.Unchanged _) -> Obs.Metrics.incr t.fresh_checks
      | Ok (Ixfr.Deltas (soa, changes)) -> apply_deltas t soa changes
      | Ok (Ixfr.Full records) -> (
          match split_transfer t.zone_name records with
          | Ok transfer -> adopt t transfer
          | Error _ -> ())
      | Error _ -> () (* transient failure; retry next cycle *)));
  (* Chained replication: a pull that moved our replica wakes the next
     tree level, bounded by the server's notify fan-out — each level
     pulls from us, not the primary, so one update never floods the
     root with simultaneous transfers. *)
  if Int32.unsigned_compare (Zone.serial t.zone) before > 0 then
    Server.notify_downstream t.server ~zone:t.zone

let refresh_once t =
  match primary_serial t with
  | None -> () (* primary unreachable: keep serving the last copy *)
  | Some serial ->
      if Int32.compare serial (Zone.serial t.zone) > 0 then pull t
      else Obs.Metrics.incr t.fresh_checks

let attach server ~primary ~zone ?refresh_ms ?(mode = Ixfr) ?(chain_depth = 1)
    ?recovered () =
  (match recovered with
  | Some z when not (Name.equal (Zone.origin z) zone) ->
      invalid_arg "Secondary.attach: recovered zone origin mismatch"
  | _ -> ());
  if chain_depth < 1 then invalid_arg "Secondary.attach: chain_depth < 1";
  if float_of_int chain_depth > Obs.Metrics.get g_chain_depth then
    Obs.Metrics.set g_chain_depth (float_of_int chain_depth);
  let t =
    {
      server;
      primary;
      zone_name = zone;
      mode;
      refresh_ms = 0.0;
      chain_depth;
      zone =
        (match recovered with
        | Some z -> z
        | None -> Zone.simple ~origin:zone []);
      running = true;
      fresh_checks = Obs.Metrics.owned m_fresh_checks;
      full_transfers = Obs.Metrics.owned m_full_transfers;
      ixfr_applied = Obs.Metrics.owned m_ixfr_applied;
      delta_records = Obs.Metrics.owned m_delta_records;
      notify_kicks = Obs.Metrics.owned m_notify_kicks;
    }
  in
  (match recovered with
  | Some _ ->
      (* Durable bootstrap: the replica already holds its last durable
         image, so catch up by deltas from that serial instead of
         re-transferring the zone. A transient failure is fine — the
         refresh loop below retries. *)
      pull t
  | None -> (
      match fetch t with
      | Error m -> failwith ("Secondary.attach: initial transfer failed: " ^ m)
      | Ok transfer -> adopt t transfer));
  let refresh_ms =
    match refresh_ms with
    | Some ms -> ms
    | None -> Int32.to_float (Zone.soa t.zone).Rr.refresh *. 1000.0
  in
  let t = { t with refresh_ms } in
  Server.add_zone server t.zone;
  (* Push-triggered refresh: a NOTIFY for our zone pulls immediately
     instead of waiting out the poll interval. The poll loop below
     stays as the backstop, so a lost NOTIFY only costs latency. *)
  Server.add_notify_handler server (fun ~zone:zname ~serial ->
      if t.running && Name.equal zname t.zone_name then begin
        let stale =
          match serial with
          | Some s -> Int32.compare s (Zone.serial t.zone) > 0
          | None -> true
        in
        if stale then begin
          Obs.Metrics.incr t.notify_kicks;
          Sim.Engine.spawn_child
            ~name:(Printf.sprintf "secondary-notify:%s" (Name.to_string zone))
            (fun () -> if t.running then pull t)
        end
      end);
  Sim.Engine.spawn_child
    ~name:(Printf.sprintf "secondary:%s" (Name.to_string zone))
    (fun () ->
      while t.running do
        Sim.Engine.sleep t.refresh_ms;
        if t.running then refresh_once t
      done);
  t

let serial t = Zone.serial t.zone
let chain_depth t = t.chain_depth
let metrics t =
  Obs.Metrics.scope
    [ t.full_transfers; t.ixfr_applied; t.delta_records; t.notify_kicks; t.fresh_checks ]

let detach t = t.running <- false
