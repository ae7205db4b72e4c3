type config = {
  base : string;
  group_window_ms : float;
  segment_bytes : int;
  snapshot_every : int;
}

let default_config =
  { base = "zone"; group_window_ms = 2.0; segment_bytes = 64 * 1024; snapshot_every = 32 }

type t = {
  config : config;
  zone : Zone.t;
  wal : Store.Wal.t;
  disk : Store.Disk.t;
  mutable since_snap : int;
  persisted : Obs.Metrics.counter;
  mutable hook : Zone.hook option; (* None once detached *)
}

let m_persisted = Obs.Metrics.counter "dns.durable.persisted_deltas"
let m_snapshots = Obs.Metrics.counter "dns.durable.snapshots"
let m_recoveries = Obs.Metrics.counter "dns.durable.recoveries"
let m_replayed = Obs.Metrics.counter "dns.durable.replayed_deltas"
let m_skipped = Obs.Metrics.counter "dns.durable.skipped_deltas"
let m_recovery_ms = Obs.Metrics.histogram "dns.durable.recovery_ms"

(* --- codecs --------------------------------------------------------- *)

(* Only the serial field of these SOAs is meaningful — exactly the
   convention the IXFR request's authority section uses. *)
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

let encode_delta ~origin (d : Journal.delta) =
  let to_soa = serial_soa origin d.Journal.to_serial in
  let msg =
    {
      (Msg.query ~id:0 origin Rr.T_ixfr) with
      Msg.recursion_desired = false;
      authority = [ serial_soa origin d.Journal.from_serial ];
      answers =
        (to_soa :: List.map Ixfr.rr_of_change d.Journal.changes) @ [ to_soa ];
    }
  in
  Msg.encode msg

let decode_delta payload =
  match Msg.decode payload with
  | exception Msg.Bad_message _ -> None
  | msg -> (
      match Ixfr.request_serial msg with
      | None -> None
      | Some from_serial -> (
          match Ixfr.parse_answers msg.Msg.answers with
          | Ok (Ixfr.Deltas (soa, changes)) ->
              Some { Journal.from_serial; to_serial = soa.Rr.serial; changes }
          | Ok (Ixfr.Unchanged soa) ->
              Some { Journal.from_serial; to_serial = soa.Rr.serial; changes = [] }
          | Ok (Ixfr.Full _) | Error _ -> None))

let encode_snapshot zone =
  let msg =
    {
      (Msg.query ~id:0 (Zone.origin zone) Rr.T_axfr) with
      Msg.recursion_desired = false;
      answers = Zone.axfr_records zone;
    }
  in
  Msg.encode msg

let decode_snapshot payload =
  match Msg.decode payload with
  | exception Msg.Bad_message _ -> None
  | msg -> (
      match (msg.Msg.questions, msg.Msg.answers) with
      | [ { Msg.qname = origin; _ } ], { Rr.rdata = Rr.Soa soa; _ } :: records
        ->
          Some (origin, soa, records)
      | _ -> None)

(* --- checkpointing -------------------------------------------------- *)

let delta_serial_le payload serial =
  match decode_delta payload with
  | Some d -> Int32.compare d.Journal.to_serial serial <= 0
  | None -> true (* undecodable: nothing recovery could use, drop it *)

let snapshot t =
  let serial = Zone.serial t.zone in
  Store.Snapshot.save ~base:t.config.base t.disk ~serial
    (encode_snapshot t.zone);
  t.since_snap <- 0;
  Obs.Metrics.incr m_snapshots;
  (* The snapshot subsumes every delta at or below its serial; prune
     them so the log tail stays proportional to churn since the last
     checkpoint, not to zone lifetime. *)
  ignore
    (Store.Wal.compact t.wal
       ~coalesce:(List.filter (fun p -> not (delta_serial_le p serial))))

let wal t = t.wal
let persisted_deltas t = Obs.Metrics.value t.persisted

let attach ?(config = default_config) disk zone =
  let wal =
    Store.Wal.create ~base:config.base ~group_window_ms:config.group_window_ms
      ~segment_bytes:config.segment_bytes disk
  in
  let t =
    {
      config;
      zone;
      wal;
      disk;
      since_snap = 0;
      persisted = Obs.Metrics.owned m_persisted;
      hook = None;
    }
  in
  (match Store.Snapshot.on_disk ~base:config.base disk with
  | [] -> snapshot t (* bootstrap: recovery always has a base image *)
  | _ :: _ ->
      (* Log hygiene: a torn tail left by the crash would swallow every
         record appended after it (replay stops at the first bad
         frame). Rewrite the intact prefix onto fresh segments before
         accepting new appends. *)
      let rep = Store.Wal.replay ~base:config.base disk in
      if rep.Store.Wal.torn_tail then
        ignore (Store.Wal.compact wal ~coalesce:(fun records -> records)));
  t.hook <-
    Some
      (Zone.add_delta_hook zone (fun d ->
           (* Blocks through the WAL group commit: the update is durable
              before the caller can acknowledge it. *)
           Store.Wal.append wal (encode_delta ~origin:(Zone.origin zone) d);
           Obs.Metrics.incr t.persisted;
           t.since_snap <- t.since_snap + 1;
           if t.since_snap >= config.snapshot_every then snapshot t));
  t

let detach t =
  match t.hook with
  | None -> ()
  | Some h ->
      t.hook <- None;
      Zone.remove_delta_hook t.zone h

(* --- compaction ----------------------------------------------------- *)

let change_key c =
  let rr = match c with Journal.Put rr | Journal.Del rr -> rr in
  ( Name.to_string rr.Rr.name,
    Format.asprintf "%a" Rr.pp_rdata rr.Rr.rdata )

let coalesce_deltas ~origin payloads =
  let deltas = List.filter_map decode_delta payloads in
  match deltas with
  | [] -> []
  | first :: _ ->
      let last = List.nth deltas (List.length deltas - 1) in
      (* Last op per (name, rdata) decides that record's fate; one op
         per key survives. Deletions are replayed before puts and each
         class is sorted, so the compacted delta is deterministic. *)
      let tbl = Hashtbl.create 64 in
      List.iteri
        (fun i c -> Hashtbl.replace tbl (change_key c) (i, c))
        (List.concat_map (fun d -> d.Journal.changes) deltas);
      let survivors = Hashtbl.fold (fun k (_, c) acc -> (k, c) :: acc) tbl [] in
      let dels, puts =
        List.partition
          (fun (_, c) -> match c with Journal.Del _ -> true | _ -> false)
          survivors
      in
      let by_key = List.sort (fun (a, _) (b, _) -> compare a b) in
      let changes = List.map snd (by_key dels @ by_key puts) in
      [
        encode_delta ~origin
          {
            Journal.from_serial = first.Journal.from_serial;
            to_serial = last.Journal.to_serial;
            changes;
          };
      ]

let compact t =
  Store.Wal.compact t.wal
    ~coalesce:(coalesce_deltas ~origin:(Zone.origin t.zone))

(* --- recovery ------------------------------------------------------- *)

type recovery = {
  zone : Zone.t;
  snapshot_serial : int32;
  replayed_deltas : int;
  skipped_deltas : int;
  torn_tail : bool;
  recovery_ms : float;
}

let recover ?(config = default_config) disk =
  let t0 = Sim.Engine.time () in
  match Store.Snapshot.load_latest ~base:config.base disk with
  | None -> None
  | Some (snap_serial, payload) -> (
      match decode_snapshot payload with
      | None -> None
      | Some (origin, soa, records) ->
          let zone = Zone.create ~origin ~soa records in
          let replay = Store.Wal.replay ~base:config.base disk in
          let replayed = ref 0 and skipped = ref 0 in
          List.iter
            (fun p ->
              match decode_delta p with
              | None -> ()
              | Some d ->
                  if Int32.compare d.Journal.to_serial (Zone.serial zone) <= 0
                  then begin
                    (* Covered by the snapshot (pruning is lazy). *)
                    incr skipped;
                    Obs.Metrics.incr m_skipped
                  end
                  else if Int32.equal d.Journal.from_serial (Zone.serial zone)
                  then begin
                    (* Re-journalled by [apply_delta], so the restarted
                       primary serves IXFR from the snapshot serial up. *)
                    Zone.apply_delta zone d;
                    incr replayed;
                    Obs.Metrics.incr m_replayed
                  end)
            replay.Store.Wal.records;
          Obs.Metrics.incr m_recoveries;
          let ms = Sim.Engine.time () -. t0 in
          Obs.Metrics.observe m_recovery_ms ms;
          Some
            {
              zone;
              snapshot_serial = snap_serial;
              replayed_deltas = !replayed;
              skipped_deltas = !skipped;
              torn_tail = replay.Store.Wal.torn_tail;
              recovery_ms = ms;
            })
