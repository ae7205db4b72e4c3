(* Tests for the durable meta-store: the simulated disk's cost model
   and crash semantics, the CRC-framed WAL (group commit, torn tails,
   segment rotation, compaction), checkpointing snapshots, the
   byte-bounded journal, and Durable — the zone spill/recovery layer,
   including the restarted-primary-resumes-IXFR regression. *)

open Helpers

let mk_a name ip = Dns.Rr.make (Dns.Name.of_string name) (Dns.Rr.A ip)
let zname = Dns.Name.of_string "z"
let disk_count d = Obs.Metrics.read (Store.Disk.metrics d)

let counter_value name =
  match Obs.Metrics.find name with
  | Some (Obs.Metrics.Count n) -> n
  | _ -> 0

(* --- the simulated disk --------------------------------------------- *)

let disk_charges_calibrated_costs () =
  let w = make_world ~hosts:1 () in
  let seek_then_stream, fsync_cost, reseek =
    in_sim w (fun () ->
        let d = Store.Disk.create () in
        let c = Store.Disk.cost d in
        let t0 = Sim.Engine.time () in
        ignore (Store.Disk.append d ~file:"f" (String.make 1000 'x'));
        let t1 = Sim.Engine.time () in
        (* The head is already at the file's tail: no second seek. *)
        ignore (Store.Disk.append d ~file:"f" (String.make 1000 'x'));
        let t2 = Sim.Engine.time () in
        Store.Disk.fsync d ~file:"f";
        let t3 = Sim.Engine.time () in
        (* The fsync parked the head; the next append seeks again. *)
        ignore (Store.Disk.append d ~file:"f" "y");
        let t4 = Sim.Engine.time () in
        ( (t1 -. t0, t2 -. t1, c),
          t3 -. t2,
          t4 -. t3 ))
  in
  let first, second, c = seek_then_stream in
  check_float_near "first append = seek + 1000 bytes"
    (c.Store.Disk.seek_ms +. (1000.0 *. c.Store.Disk.per_byte_ms))
    first;
  check_float_near "sequential append streams without a seek"
    (1000.0 *. c.Store.Disk.per_byte_ms)
    second;
  check_float_near "fsync settles the platter" c.Store.Disk.fsync_ms fsync_cost;
  check_float_near "post-sync append re-seeks"
    (c.Store.Disk.seek_ms +. c.Store.Disk.per_byte_ms)
    reseek

let disk_crash_drops_unsynced_bytes () =
  let d = Store.Disk.create () in
  ignore (Store.Disk.append d ~file:"f" "hello");
  Store.Disk.fsync d ~file:"f";
  ignore (Store.Disk.append d ~file:"f" " world");
  check_int "size counts pending bytes" 11 (Store.Disk.size d ~file:"f");
  Store.Disk.crash d;
  check_string "only the synced prefix survives" "hello"
    (Store.Disk.durable_contents d ~file:"f");
  check_int "one crash counted" 1 (disk_count d "store.disk.crashes");
  check_int "a clean crash tears nothing" 0 (disk_count d "store.disk.torn_writes")

let torn_writes_are_seeded_and_deterministic () =
  let run seed =
    let d = Store.Disk.create ~name:"flaky" () in
    let inj =
      Chaos.Injector.install_disk ~seed
        [ Chaos.Plan.torn_write ~host:"flaky" ~at:0.0 ~probability:1.0 () ]
        d
    in
    ignore (Store.Disk.append d ~file:"f" (String.make 40 'a'));
    Store.Disk.crash d;
    let kept = Store.Disk.durable_contents d ~file:"f" in
    let trace = Chaos.Injector.disk_trace inj in
    Chaos.Injector.uninstall_disk inj;
    (kept, trace, disk_count d "store.disk.torn_writes")
  in
  let kept_a, trace_a, torn_a = run 0x7E57L in
  let kept_b, trace_b, _ = run 0x7E57L in
  check_bool "torn prefix is non-empty" true (String.length kept_a > 0);
  check_bool "torn prefix is a strict prefix" true (String.length kept_a <= 40);
  check_int "torn write counted" 1 torn_a;
  check_string "same seed keeps the same prefix" kept_a kept_b;
  check_bool "trace recorded the tear" true (List.length trace_a = 1);
  check_bool "same seed, byte-identical trace" true (trace_a = trace_b)

(* --- the write-ahead log -------------------------------------------- *)

let wal_replay_round_trips () =
  let w = make_world ~hosts:1 () in
  let records, torn, scanned =
    in_sim w (fun () ->
        let d = Store.Disk.create ~cost:Store.Disk.free_cost () in
        let wal = Store.Wal.create d in
        List.iter (Store.Wal.append wal) [ "alpha"; "bravo"; "charlie" ];
        let r = Store.Wal.replay d in
        (r.Store.Wal.records, r.Store.Wal.torn_tail, r.Store.Wal.bytes_scanned))
  in
  check_bool "records replay in append order" true
    (records = [ "alpha"; "bravo"; "charlie" ]);
  check_bool "no torn tail" false torn;
  check_bool "framing overhead is visible" true (scanned > 5 + 5 + 7)

let wal_torn_tail_stops_replay () =
  let w = make_world ~hosts:1 () in
  let records, torn =
    in_sim w (fun () ->
        let d = Store.Disk.create ~cost:Store.Disk.free_cost () in
        let wal = Store.Wal.create d in
        Store.Wal.append wal "good-1";
        Store.Wal.append wal "good-2";
        (* A power loss mid-frame: garbage lands after the committed
           records and becomes durable. *)
        let seg = Printf.sprintf "%s.%06d.wal" (Store.Wal.base wal) 0 in
        ignore (Store.Disk.append d ~file:seg "XXXXXXXXXX");
        Store.Disk.fsync d ~file:seg;
        let r = Store.Wal.replay d in
        (r.Store.Wal.records, r.Store.Wal.torn_tail))
  in
  check_bool "intact prefix replays" true (records = [ "good-1"; "good-2" ]);
  check_bool "the bad frame marks a torn tail" true torn

let wal_group_commit_shares_fsyncs () =
  let w = make_world ~hosts:1 () in
  let appends, commits, records =
    in_sim w (fun () ->
        let d = Store.Disk.create () in
        let wal = Store.Wal.create d in
        let mb = Sim.Engine.Mailbox.create () in
        for i = 1 to 4 do
          Sim.Engine.spawn_child (fun () ->
              Store.Wal.append wal (Printf.sprintf "r%d" i);
              Sim.Engine.Mailbox.send mb i)
        done;
        for _ = 1 to 4 do
          ignore (Sim.Engine.Mailbox.recv mb)
        done;
        let r = Store.Wal.replay d in
        let count = Obs.Metrics.read (Store.Wal.metrics wal) in
        (count "store.wal.appends", count "store.wal.group_commits", r.Store.Wal.records))
  in
  check_int "four appends" 4 appends;
  check_bool "concurrent appends share commits" true (commits < appends);
  check_int "every record is durable on return" 4 (List.length records)

let wal_rotates_segments () =
  let w = make_world ~hosts:1 () in
  let segments, records =
    in_sim w (fun () ->
        let d = Store.Disk.create ~cost:Store.Disk.free_cost () in
        let wal = Store.Wal.create ~segment_bytes:64 d in
        let payloads = List.init 8 (fun i -> Printf.sprintf "record-%02d-aaaaaaaa" i) in
        List.iter (Store.Wal.append wal) payloads;
        let r = Store.Wal.replay d in
        (Store.Wal.segments wal, r.Store.Wal.records = payloads))
  in
  check_bool "small segment size forces rotation" true (segments > 1);
  check_bool "replay crosses segment boundaries in order" true records

let wal_compaction_coalesces () =
  let w = make_world ~hosts:1 () in
  let ratio, records, bytes_after =
    in_sim w (fun () ->
        let d = Store.Disk.create ~cost:Store.Disk.free_cost () in
        let wal = Store.Wal.create d in
        List.iter (Store.Wal.append wal)
          [ "k1=a"; "k2=b"; "k1=c"; "k1=d"; "k2=e" ];
        let before = Store.Wal.bytes wal in
        (* Keep only the last record per key. *)
        let coalesce rs =
          let seen = Hashtbl.create 8 in
          List.rev
            (List.fold_left
               (fun acc r ->
                 let k = List.hd (String.split_on_char '=' r) in
                 if Hashtbl.mem seen k then acc
                 else begin
                   Hashtbl.add seen k ();
                   r :: acc
                 end)
               [] (List.rev rs))
        in
        let ratio = Store.Wal.compact wal ~coalesce in
        let r = Store.Wal.replay d in
        check_bool "log shrank" true (Store.Wal.bytes wal < before);
        (ratio, r.Store.Wal.records, Store.Wal.bytes wal))
  in
  check_bool "compaction ratio > 1" true (ratio > 1.0);
  check_bool "only the survivors remain" true
    (List.sort String.compare records = [ "k1=d"; "k2=e" ]);
  check_bool "rewritten image is non-empty" true (bytes_after > 0)

(* Appends racing a compaction pass: before the in-compact guard, a
   frame written while the pass slept in a disk charge landed as
   pending bytes in a segment the pass then deleted — acknowledged,
   yet absent from the recovered log. *)
let wal_compaction_races_appends () =
  let w = make_world ~hosts:1 () in
  let acked, replayed =
    in_sim w (fun () ->
        (* Real disk costs so the pass yields mid-flight: that is the
           window the guard has to close. *)
        let d = Store.Disk.create () in
        let wal = Store.Wal.create d in
        List.iter (Store.Wal.append wal) [ "base-1"; "base-2" ];
        let acked = ref [] in
        for i = 1 to 4 do
          Sim.Engine.spawn_child ~name:(Printf.sprintf "writer-%d" i)
            (fun () ->
              Sim.Engine.sleep (float_of_int i *. 0.5);
              let r = Printf.sprintf "racer-%d" i in
              Store.Wal.append wal r;
              acked := r :: !acked)
        done;
        (* Compact while writer 1 sleeps in its write's seek charge
           and the later writers arrive mid-pass. *)
        Sim.Engine.sleep 1.0;
        ignore (Store.Wal.compact wal ~coalesce:(fun rs -> rs));
        Sim.Engine.sleep 500.0;
        let r = Store.Wal.replay d in
        (List.rev !acked, r.Store.Wal.records))
  in
  check_int "every racing append returned" 4 (List.length acked);
  List.iter
    (fun r ->
      check_bool (Printf.sprintf "acked %s survives the compaction" r) true
        (List.mem r replayed))
    ("base-1" :: "base-2" :: acked);
  check_int "no record was duplicated by the rewrite"
    (List.length replayed)
    (List.length (List.sort_uniq String.compare replayed))

(* --- snapshots ------------------------------------------------------ *)

let snapshots_prune_and_fall_back () =
  let w = make_world ~hosts:1 () in
  in_sim w (fun () ->
      let d = Store.Disk.create ~cost:Store.Disk.free_cost () in
      Store.Snapshot.save d ~serial:5l "imageA";
      Store.Snapshot.save d ~serial:9l "imageB";
      (match Store.Snapshot.load_latest d with
      | Some (9l, "imageB") -> ()
      | _ -> Alcotest.fail "latest snapshot should be serial 9");
      Store.Snapshot.save d ~serial:12l "imageC";
      check_bool "keep=2 prunes the oldest" true
        (Store.Snapshot.on_disk d = [ 12l; 9l ]);
      (* A corrupt newer snapshot must not poison recovery. *)
      let bogus = Printf.sprintf "snap.%010ld.snap" 15l in
      ignore (Store.Disk.append d ~file:bogus "garbage-frame");
      Store.Disk.fsync d ~file:bogus;
      check_bool "corrupt snapshot is visible on disk" true
        (Store.Snapshot.on_disk d = [ 15l; 12l; 9l ]);
      match Store.Snapshot.load_latest d with
      | Some (12l, "imageC") -> ()
      | _ -> Alcotest.fail "load should fall back past the corrupt snapshot")

(* --- the byte-bounded journal --------------------------------------- *)

let journal_sheds_by_bytes () =
  let j = Dns.Journal.create ~max_deltas:100 ~max_bytes:400 () in
  let fat i =
    [ Dns.Journal.Put (mk_a (Printf.sprintf "a-very-long-owner-name-%02d.z" i) 1l) ]
  in
  for i = 1 to 10 do
    Dns.Journal.record j
      ~from_serial:(Int32.of_int i)
      ~to_serial:(Int32.of_int (i + 1))
      (fat i)
  done;
  check_bool "retention stayed under the byte bound" true
    (Dns.Journal.bytes j <= 400);
  check_bool "old deltas were shed" true
    (Obs.Metrics.read (Dns.Journal.metrics j) "dns.journal.truncations" > 0);
  check_bool "some deltas survive" true (Dns.Journal.length j >= 1);
  match List.rev (Dns.Journal.deltas j) with
  | newest :: _ ->
      check_bool "the newest delta always survives" true
        (Int32.equal newest.Dns.Journal.to_serial 11l)
  | [] -> Alcotest.fail "journal emptied below one delta"

(* --- chaos plan: torn-write validation ------------------------------ *)

let torn_write_plan_validates () =
  let rejected f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check_bool "probability > 1 rejected" true
    (rejected (fun () ->
         Chaos.Plan.torn_write ~host:"d" ~at:0.0 ~probability:1.5 ()));
  check_bool "empty host rejected" true
    (rejected (fun () ->
         Chaos.Plan.torn_write ~host:"" ~at:0.0 ~probability:0.5 ()));
  let s =
    Chaos.Plan.to_string
      [ Chaos.Plan.torn_write ~host:"d0" ~at:0.0 ~probability:0.5 () ]
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  check_bool "pp names the fault" true (contains s "torn-write")

(* --- Durable: spill, crash matrix, recovery ------------------------- *)

let key k = Dns.Name.of_string (Printf.sprintf "k%d.z" k)

let apply_update server i op =
  let ops =
    match op with
    | `Set (k, v) ->
        [
          Dns.Msg.Delete_rrset (key k, Dns.Rr.T_a);
          Dns.Msg.Add (mk_a (Printf.sprintf "k%d.z" k) (Int32.of_int v));
        ]
    | `Del k -> [ Dns.Msg.Delete_name (key k) ]
  in
  let reply =
    Dns.Server.handle server (Dns.Msg.update_request ~id:(i land 0xFFFF) ~zone:zname ops)
  in
  if reply.Dns.Msg.rcode <> Dns.Msg.No_error then
    Alcotest.failf "update %d refused" i

let crash_matrix () =
  let w = make_world ~hosts:1 () in
  in_sim w (fun () ->
      let zone = Dns.Zone.simple ~origin:zname [ mk_a "h.z" 7l ] in
      let disk = Store.Disk.create ~name:"d0" () in
      let _d = Dns.Durable.attach disk zone in
      let server = Dns.Server.create w.stacks.(0) ~allow_update:true () in
      Dns.Server.add_zone server zone;
      (* After the ack: the delta was fsynced before the update path
         returned, so a crash loses nothing. *)
      apply_update server 1 (`Set (1, 11));
      let committed = Dns.Zone.serial zone in
      Store.Disk.crash disk;
      let r1 =
        match Dns.Durable.recover disk with
        | Some r -> r
        | None -> Alcotest.fail "recovery found no image"
      in
      check_bool "crash after ack: update survives" true
        (Int32.equal (Dns.Zone.serial r1.Dns.Durable.zone) committed);
      check_bool "clean image, no torn tail" false r1.Dns.Durable.torn_tail;
      (* During the commit: the frame's bytes are on the platter but
         unsynced when the power fails, and the tear leaves a partial
         frame the CRC rejects. *)
      let inj =
        Chaos.Injector.install_disk
          [ Chaos.Plan.torn_write ~host:"d0" ~at:0.0 ~probability:1.0 () ]
          disk
      in
      Sim.Engine.spawn_child (fun () ->
          try apply_update server 2 (`Set (2, 22))
          with _ -> () (* the machine died under this update *));
      Sim.Engine.sleep 1.0 (* inside the seek: written, not yet synced *);
      Store.Disk.crash disk;
      Chaos.Injector.uninstall_disk inj;
      check_int "the tear was recorded" 1 (disk_count disk "store.disk.torn_writes");
      let r2 =
        match Dns.Durable.recover disk with
        | Some r -> r
        | None -> Alcotest.fail "recovery found no image"
      in
      check_bool "crash during commit: unacked update lost" true
        (Int32.equal (Dns.Zone.serial r2.Dns.Durable.zone) committed);
      check_bool "the torn tail was detected" true r2.Dns.Durable.torn_tail;
      (* After recovery: re-attach must not let the torn garbage
         swallow new records; a further committed update survives the
         next crash. *)
      let zone2 = r2.Dns.Durable.zone in
      let _d2 = Dns.Durable.attach disk zone2 in
      let server2 = Dns.Server.create w.stacks.(0) ~allow_update:true ~port:5300 () in
      Dns.Server.add_zone server2 zone2;
      apply_update server2 3 (`Set (3, 33));
      let committed2 = Dns.Zone.serial zone2 in
      Store.Disk.crash disk;
      let r3 =
        match Dns.Durable.recover disk with
        | Some r -> r
        | None -> Alcotest.fail "recovery found no image"
      in
      check_bool "post-recovery commit survives the next crash" true
        (Int32.equal (Dns.Zone.serial r3.Dns.Durable.zone) committed2);
      check_bool "hygiene rewrote the torn tail" false r3.Dns.Durable.torn_tail)

let restarted_primary_resumes_ixfr () =
  let w = make_world ~hosts:3 () in
  in_sim w (fun () ->
      let zone = Dns.Zone.simple ~origin:zname [ mk_a "h.z" 7l ] in
      let disk = Store.Disk.create () in
      let _d = Dns.Durable.attach disk zone in
      let primary = Dns.Server.create w.stacks.(0) ~allow_update:true () in
      Dns.Server.add_zone primary zone;
      Dns.Server.start primary;
      let replica_server = Dns.Server.create w.stacks.(1) () in
      Dns.Server.start replica_server;
      (* No NOTIFY registration: the replica holds its initial copy
         while the primary takes writes. *)
      let secondary =
        Dns.Secondary.attach replica_server ~primary:(Dns.Server.addr primary)
          ~zone:zname ~refresh_ms:120_000.0 ()
      in
      let s0 = Dns.Secondary.serial secondary in
      let update rr =
        match
          Dns.Update.add_rr (Rpc.Rawrpc.call w.stacks.(2) ~dst:(Dns.Server.addr primary))
            ~zone:zname rr
        with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "update failed: %a" Dns.Update.pp_error e
      in
      update (mk_a "a.z" 1l);
      update (mk_a "b.z" 2l);
      update (mk_a "c.z" 3l);
      let target = Dns.Zone.serial zone in
      (* The primary host dies. *)
      Dns.Server.stop primary;
      Store.Disk.crash disk;
      let r =
        match Dns.Durable.recover disk with
        | Some r -> r
        | None -> Alcotest.fail "recovery found no image"
      in
      check_bool "recovered at the last durable serial" true
        (Int32.equal (Dns.Zone.serial r.Dns.Durable.zone) target);
      (* Replay re-journalled the deltas: the restarted primary can
         bridge the replica's serial incrementally. *)
      check_bool "journal bridges the replica's serial" true
        (Dns.Journal.since (Dns.Zone.journal r.Dns.Durable.zone) ~serial:s0
        <> None);
      let primary2 = Dns.Server.create w.stacks.(0) ~allow_update:true () in
      Dns.Server.add_zone primary2 r.Dns.Durable.zone;
      Dns.Server.start primary2;
      Dns.Server.register_notify primary2 (Dns.Server.addr replica_server);
      update (mk_a "d.z" 4l);
      Sim.Engine.sleep 2_000.0;
      check_bool "replica converged on the restarted primary" true
        (Int32.equal (Dns.Secondary.serial secondary)
           (Dns.Zone.serial r.Dns.Durable.zone));
      check_int "no full transfer after the restart" 1
        (secondary_count secondary "dns.secondary.full_transfers");
      check_bool "the catch-up was incremental" true
        (secondary_count secondary "dns.secondary.ixfr_applied" >= 1);
      Dns.Secondary.detach secondary;
      Dns.Server.stop primary2;
      Dns.Server.stop replica_server)

let durable_secondary_bootstraps_by_delta () =
  let w = make_world ~hosts:3 () in
  in_sim w (fun () ->
      let zone = Dns.Zone.simple ~origin:zname [ mk_a "h.z" 7l ] in
      let primary = Dns.Server.create w.stacks.(0) ~allow_update:true () in
      Dns.Server.add_zone primary zone;
      Dns.Server.start primary;
      let update rr =
        match
          Dns.Update.add_rr (Rpc.Rawrpc.call w.stacks.(2) ~dst:(Dns.Server.addr primary))
            ~zone:zname rr
        with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "update failed: %a" Dns.Update.pp_error e
      in
      update (mk_a "a.z" 1l);
      update (mk_a "b.z" 2l);
      (* The replica synced here once and spilled its copy durably. *)
      let zone_r =
        Dns.Zone.create ~origin:zname ~soa:(Dns.Zone.soa zone)
          (Dns.Db.all (Dns.Zone.db zone))
      in
      let held = Dns.Zone.serial zone_r in
      let disk_r = Store.Disk.create ~name:"replica-disk" () in
      let _dr = Dns.Durable.attach disk_r zone_r in
      (* The primary moves on while the replica host is down. *)
      update (mk_a "c.z" 3l);
      update (mk_a "d.z" 4l);
      Store.Disk.crash disk_r;
      let r =
        match Dns.Durable.recover disk_r with
        | Some r -> r
        | None -> Alcotest.fail "replica recovery found no image"
      in
      check_bool "replica recovered its held serial" true
        (Int32.equal (Dns.Zone.serial r.Dns.Durable.zone) held);
      let replica_server = Dns.Server.create w.stacks.(1) () in
      Dns.Server.start replica_server;
      let secondary =
        Dns.Secondary.attach replica_server ~primary:(Dns.Server.addr primary)
          ~zone:zname ~recovered:r.Dns.Durable.zone ()
      in
      check_bool "bootstrap converged" true
        (Int32.equal (Dns.Secondary.serial secondary) (Dns.Zone.serial zone));
      check_int "no full transfer: snapshot + deltas only" 0
        (secondary_count secondary "dns.secondary.full_transfers");
      check_bool "the catch-up was incremental" true
        (secondary_count secondary "dns.secondary.ixfr_applied" >= 1);
      Dns.Secondary.detach secondary;
      Dns.Server.stop primary;
      Dns.Server.stop replica_server)

(* --- the meta client under a regressed primary ---------------------- *)

let meta_value = Wire.Value.str "UW-BIND"

let serial_regression_triggers_resync () =
  let w = make_world ~hosts:3 () in
  let regressions0 = counter_value "hns.meta.serial_regressions" in
  let cached, fulls, held_after, primary2_serial =
    in_sim w (fun () ->
        let records =
          List.map
            (fun c ->
              Dns.Rr.make ~ttl:3600l
                (Hns.Meta_schema.context_key c)
                (Dns.Rr.Unspec
                   (Wire.Xdr.to_string Hns.Meta_schema.string_ty meta_value)))
            [ "alpha"; "beta"; "gamma" ]
        in
        let zone = Dns.Zone.simple ~origin:Hns.Meta_schema.zone_origin records in
        (* Age the zone well past a fresh image's serial. *)
        for _ = 1 to 5 do
          Dns.Zone.bump_serial zone
        done;
        let primary = Dns.Server.create w.stacks.(0) ~allow_update:true () in
        Dns.Server.add_zone primary zone;
        Dns.Server.start primary;
        let client =
          Hns.Meta_client.create w.stacks.(1)
            ~meta_server:(Dns.Server.addr primary)
            ~cache:(Hns.Cache.create ~mode:Hns.Cache.Demarshalled ())
            ()
        in
        (match Hns.Meta_client.preload client with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "preload failed: %s" (Hns.Errors.to_string e));
        let listener, stop_listener = Hns.Meta_client.start_notify_listener client in
        (* The primary restarts from a stale image: same records, a
           much older serial — the failure the durable spill prevents,
           seen from the client's side. *)
        Dns.Server.stop primary;
        let zone2 = Dns.Zone.simple ~origin:Hns.Meta_schema.zone_origin records in
        let primary2 = Dns.Server.create w.stacks.(0) ~allow_update:true () in
        Dns.Server.add_zone primary2 zone2;
        Dns.Server.start primary2;
        Dns.Server.register_notify primary2 listener;
        let admin =
          Hns.Meta_client.create w.stacks.(2)
            ~meta_server:(Dns.Server.addr primary2)
            ~cache:(Hns.Cache.create ~mode:Hns.Cache.Demarshalled ())
            ()
        in
        let key = Hns.Meta_schema.context_key "fresh" in
        (match
           Hns.Meta_client.store admin ~key ~ty:Hns.Meta_schema.string_ty
             meta_value
         with
        | Ok () -> ()
        | Error e -> Alcotest.failf "store failed: %s" (Hns.Errors.to_string e));
        Sim.Engine.sleep 2_000.0;
        let r =
          ( Hns.Cache.probe
              (Hns.Meta_client.cache client)
              ~key:(Hns.Meta_schema.cache_key key)
            = Some Hns.Cache.Fresh,
            meta_count client "hns.meta.full_refreshes",
            Hns.Meta_client.zone_serial client,
            Dns.Zone.serial zone2 )
        in
        stop_listener ();
        Dns.Server.stop primary2;
        r)
  in
  check_bool "regression was detected" true
    (counter_value "hns.meta.serial_regressions" > regressions0);
  check_bool "client resynced the regressed zone" true cached;
  check_int "the resync was a full reload" 2 fulls;
  check_bool "client adopted the regressed serial" true
    (held_after = Some primary2_serial)

(* --- property: spill + crash + recover == the live zone ------------- *)

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 1 24)
      (oneof
         [
           map2 (fun k v -> `Set (k mod 8, v)) small_int int;
           map (fun k -> `Del (k mod 8)) small_int;
         ]))

let arb_ops =
  QCheck.make ~print:(fun l -> Printf.sprintf "%d ops" (List.length l)) gen_ops

let render_records records =
  List.sort String.compare
    (List.map (fun rr -> Format.asprintf "%a" Dns.Rr.pp rr) records)

let recovery_matches_live ops =
  let w = make_world ~hosts:1 () in
  in_sim w (fun () ->
      let zone = Dns.Zone.simple ~origin:zname [ mk_a "h.z" 7l ] in
      let disk = Store.Disk.create ~cost:Store.Disk.free_cost () in
      (* A small checkpoint interval so the scripts cross snapshot
         boundaries: recovery composes snapshot + log tail, not just
         one or the other. *)
      let config = { Dns.Durable.default_config with snapshot_every = 7 } in
      let d = Dns.Durable.attach ~config disk zone in
      let server = Dns.Server.create w.stacks.(0) ~allow_update:true () in
      Dns.Server.add_zone server zone;
      List.iteri (fun i op -> apply_update server i op) ops;
      ignore (Dns.Durable.compact d);
      Store.Disk.crash disk;
      match Dns.Durable.recover ~config disk with
      | None -> false
      | Some r ->
          Int32.equal (Dns.Zone.serial r.Dns.Durable.zone) (Dns.Zone.serial zone)
          && render_records (Dns.Zone.axfr_records r.Dns.Durable.zone)
             = render_records (Dns.Zone.axfr_records zone))

let recovery_equivalence_prop =
  QCheck.Test.make ~name:"snapshot + WAL replay == the live zone" ~count:60
    arb_ops recovery_matches_live

(* --- metric hygiene ------------------------------------------------- *)

let store_metrics_lint_clean () =
  check_bool "store.disk.* registered" true
    (Obs.Metrics.find "store.disk.fsyncs" <> None);
  check_bool "store.wal.* registered" true
    (Obs.Metrics.find "store.wal.appends" <> None);
  check_bool "store.snapshot.* registered" true
    (Obs.Metrics.find "store.snapshot.saves" <> None);
  check_bool "dns.durable.* registered" true
    (Obs.Metrics.find "dns.durable.recoveries" <> None);
  check_bool "dns.journal.bytes registered" true
    (Obs.Metrics.find "dns.journal.bytes" <> None);
  check_bool "chaos.injector.torn_writes registered" true
    (Obs.Metrics.find "chaos.injector.torn_writes" <> None);
  (* Other suites deliberately register ill-formed names to exercise
     the linter; only this subsystem's names must be clean. *)
  let ours c =
    List.exists
      (fun p ->
        let quoted = "\"" ^ p in
        String.length c >= String.length quoted
        && String.sub c 0 (String.length quoted) = quoted)
      [ "store."; "dns.durable"; "dns.journal"; "chaos.injector" ]
  in
  match List.filter ours (Obs.Metrics.lint ()) with
  | [] -> ()
  | complaints ->
      Alcotest.failf "metric lint: %s" (String.concat "; " complaints)

let suite =
  [
    Alcotest.test_case "disk charges calibrated costs" `Quick
      disk_charges_calibrated_costs;
    Alcotest.test_case "disk crash drops unsynced bytes" `Quick
      disk_crash_drops_unsynced_bytes;
    Alcotest.test_case "torn writes are seeded and deterministic" `Quick
      torn_writes_are_seeded_and_deterministic;
    Alcotest.test_case "WAL replay round-trips" `Quick wal_replay_round_trips;
    Alcotest.test_case "WAL torn tail stops replay" `Quick
      wal_torn_tail_stops_replay;
    Alcotest.test_case "WAL group commit shares fsyncs" `Quick
      wal_group_commit_shares_fsyncs;
    Alcotest.test_case "WAL rotates segments" `Quick wal_rotates_segments;
    Alcotest.test_case "WAL compaction coalesces" `Quick wal_compaction_coalesces;
    Alcotest.test_case "WAL compaction races appends" `Quick
      wal_compaction_races_appends;
    Alcotest.test_case "snapshots prune and fall back" `Quick
      snapshots_prune_and_fall_back;
    Alcotest.test_case "journal sheds by bytes" `Quick journal_sheds_by_bytes;
    Alcotest.test_case "torn-write plan validates" `Quick torn_write_plan_validates;
    Alcotest.test_case "crash matrix: before/during/after the commit" `Quick
      crash_matrix;
    Alcotest.test_case "restarted primary resumes IXFR" `Quick
      restarted_primary_resumes_ixfr;
    Alcotest.test_case "durable secondary bootstraps by delta" `Quick
      durable_secondary_bootstraps_by_delta;
    Alcotest.test_case "serial regression triggers resync" `Quick
      serial_regression_triggers_resync;
    qtest recovery_equivalence_prop;
    Alcotest.test_case "store metrics lint clean" `Quick store_metrics_lint_clean;
  ]
