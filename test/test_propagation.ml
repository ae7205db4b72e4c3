(* Tests for the change-propagation subsystem: the per-zone journal,
   NOTIFY push, IXFR incremental transfer, and delta-driven refresh of
   the preloaded HNS meta cache. *)

open Helpers

let mk_a name ip = Dns.Rr.make (Dns.Name.of_string name) (Dns.Rr.A ip)
let zname = Dns.Name.of_string "z"

(* A primary (updatable) + secondary pair over a small zone; the
   secondary's poll interval is [refresh_ms], NOTIFY registration is
   the caller's choice. *)
let make_pair w ~refresh_ms ?journal_deltas ?(register_notify = true) () =
  let zone =
    Dns.Zone.simple ?journal_deltas ~origin:zname [ mk_a "h.z" 7l ]
  in
  let primary = Dns.Server.create w.stacks.(0) ~allow_update:true () in
  Dns.Server.add_zone primary zone;
  Dns.Server.start primary;
  let replica_server = Dns.Server.create w.stacks.(1) () in
  Dns.Server.start replica_server;
  let secondary =
    Dns.Secondary.attach replica_server
      ~primary:(Dns.Server.addr primary) ~zone:zname ~refresh_ms ()
  in
  if register_notify then
    Dns.Server.register_notify primary (Dns.Server.addr replica_server);
  (zone, primary, secondary)

let update w primary rr =
  match
    Dns.Update.add_rr w.stacks.(2) ~server:(Dns.Server.addr primary)
      ~zone:zname rr
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "update failed: %a" Dns.Update.pp_error e

(* --- NOTIFY + IXFR: push-driven incremental convergence --- *)

let notify_ixfr_converges_without_polling () =
  let w = make_world ~hosts:3 () in
  let serial_ok, kicks, ixfrs, fulls, deltas =
    in_sim w (fun () ->
        (* Poll backstop a minute out: any convergence below that is
           push-driven. *)
        let zone, primary, secondary = make_pair w ~refresh_ms:60_000.0 () in
        update w primary (mk_a "new.z" 9l);
        Sim.Engine.sleep 2_000.0;
        let r =
          ( Int32.equal (Dns.Secondary.serial secondary) (Dns.Zone.serial zone),
            secondary_count secondary "dns.secondary.notify_kicks",
            secondary_count secondary "dns.secondary.ixfr_applied",
            secondary_count secondary "dns.secondary.full_transfers",
            secondary_count secondary "dns.secondary.delta_records" )
        in
        Dns.Secondary.detach secondary;
        r)
  in
  check_bool "replica serial caught up inside the poll window" true serial_ok;
  check_int "one NOTIFY kick" 1 kicks;
  check_int "one incremental refresh" 1 ixfrs;
  check_int "only the initial transfer was full" 1 fulls;
  check_bool "the delta carried the change" true (deltas >= 1)

(* --- journal truncation: IXFR degrades to a full transfer --- *)

let truncated_journal_falls_back_to_axfr () =
  let w = make_world ~hosts:3 () in
  let serial_ok, fulls_after_burst, ixfrs_after_burst, ixfrs_final =
    in_sim w (fun () ->
        (* A 2-delta journal and no NOTIFY: the secondary only polls,
           and a burst of updates outruns what the journal retains. *)
        let zone, primary, secondary =
          make_pair w ~refresh_ms:5_000.0 ~journal_deltas:2
            ~register_notify:false ()
        in
        for i = 1 to 5 do
          update w primary (mk_a (Printf.sprintf "burst%d.z" i) (Int32.of_int i))
        done;
        Sim.Engine.sleep 6_000.0;
        let fulls_after_burst = secondary_count secondary "dns.secondary.full_transfers" in
        let ixfrs_after_burst = secondary_count secondary "dns.secondary.ixfr_applied" in
        let caught_up =
          Int32.equal (Dns.Secondary.serial secondary) (Dns.Zone.serial zone)
        in
        (* One more update fits the journal: back to the delta path. *)
        update w primary (mk_a "calm.z" 99l);
        Sim.Engine.sleep 6_000.0;
        let r =
          ( caught_up
            && Int32.equal (Dns.Secondary.serial secondary)
                 (Dns.Zone.serial zone),
            fulls_after_burst,
            ixfrs_after_burst,
            secondary_count secondary "dns.secondary.ixfr_applied" )
        in
        Dns.Secondary.detach secondary;
        r)
  in
  check_bool "replica converged both times" true serial_ok;
  check_int "burst forced an AXFR fallback" 2 fulls_after_burst;
  check_int "no delta could bridge the burst" 0 ixfrs_after_burst;
  check_int "single update rode the journal" 1 ixfrs_final

(* --- chaos: a lost NOTIFY degrades to the poll backstop --- *)

let lost_notify_degrades_to_polling () =
  let w = make_world ~hosts:3 () in
  let stale_mid_window, converged, kicks =
    in_sim w (fun () ->
        let zone, primary, secondary = make_pair w ~refresh_ms:10_000.0 () in
        (* Cut primary <-> replica around the update instant: the
           NOTIFY (and its retries) die on the wire. The admin host
           stays connected to the primary. *)
        let inj =
          Chaos.Injector.install
            [
              Chaos.Plan.partition ~group_a:[ "h0" ] ~group_b:[ "h1" ]
                ~at:1_000.0 ~heal_at:8_000.0;
            ]
            w.net
        in
        Sim.Engine.sleep 2_000.0;
        update w primary (mk_a "new.z" 9l);
        Sim.Engine.sleep 4_000.0;
        (* Mid-window: the push was lost, the replica is behind. *)
        let stale =
          Int32.compare (Dns.Secondary.serial secondary)
            (Dns.Zone.serial zone)
          < 0
        in
        (* Past the heal and the 10 s poll, the backstop converges. *)
        Sim.Engine.sleep 7_000.0;
        let converged =
          Int32.equal (Dns.Secondary.serial secondary) (Dns.Zone.serial zone)
        in
        let kicks = secondary_count secondary "dns.secondary.notify_kicks" in
        Chaos.Injector.uninstall inj;
        Dns.Secondary.detach secondary;
        (stale, converged, kicks))
  in
  check_bool "stale while the NOTIFY was lost" true stale_mid_window;
  check_bool "poll backstop converged after heal" true converged;
  check_int "no NOTIFY ever arrived" 0 kicks

(* --- NOTIFY fan-out holds 8 pushes in flight --- *)

let m_notify_sent = Obs.Metrics.counter "dns.notify.sent"

(* 20 subscribers nobody listens for: each push ties its worker up for
   1.5 s (a 500 ms attempt, then a 1000 ms retry), so one update's
   sends leave in waves of 8, 8 and 4, 1.5 s apart. *)
let notify_fanout_holds_eight_in_flight () =
  let w = make_world ~hosts:3 () in
  let sent_at =
    in_sim w (fun () ->
        let primary = Dns.Server.create w.stacks.(0) ~allow_update:true () in
        Dns.Server.add_zone primary
          (Dns.Zone.simple ~origin:zname [ mk_a "h.z" 7l ]);
        Dns.Server.start primary;
        let dead_ip = Transport.Netstack.ip w.stacks.(1) in
        for port = 40_000 to 40_019 do
          Dns.Server.register_notify primary (Transport.Address.make dead_ip port)
        done;
        let before = Obs.Metrics.value m_notify_sent in
        update w primary (mk_a "new.z" 9l);
        (* Offsets from the update's ack, a few ms after the push. *)
        List.map
          (fun offset_ms ->
            Sim.Engine.sleep offset_ms;
            Obs.Metrics.value m_notify_sent - before)
          [ 0.0; 1_400.0; 200.0; 1_300.0; 200.0; 2_000.0 ])
  in
  Alcotest.(check (list int))
    "sent at +0, +1.4, +1.6, +2.9, +3.1 and +5.1 s"
    [ 8; 8; 16; 16; 20; 20 ] sent_at


(* --- the preloaded meta client, kept coherent by deltas --- *)

let meta_value = Wire.Value.str "UW-BIND"

let meta_world () =
  let w = make_world ~hosts:3 () in
  (w, fun () ->
    let records =
      List.map
        (fun c ->
          Dns.Rr.make ~ttl:3600l
            (Hns.Meta_schema.context_key c)
            (Dns.Rr.Unspec
               (Wire.Xdr.to_string Hns.Meta_schema.string_ty meta_value)))
        [ "alpha"; "beta"; "gamma" ]
    in
    let zone =
      Dns.Zone.simple ~origin:Hns.Meta_schema.zone_origin records
    in
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
    | Ok n -> check_int "preload seeded the zone" 3 n
    | Error e -> Alcotest.failf "preload failed: %s" (Hns.Errors.to_string e));
    let listener, stop_listener = Hns.Meta_client.start_notify_listener client in
    Dns.Server.register_notify primary listener;
    let admin =
      Hns.Meta_client.create w.stacks.(2)
        ~meta_server:(Dns.Server.addr primary)
        ~cache:(Hns.Cache.create ~mode:Hns.Cache.Demarshalled ())
        ()
    in
    (primary, client, admin, stop_listener))

let client_applies_added_records () =
  let w, setup = meta_world () in
  let cached, refreshes, fulls, kicks, remote, serial_moved =
    in_sim w (fun () ->
        let _primary, client, admin, stop = setup () in
        let s0 = Hns.Meta_client.zone_serial client in
        let key = Hns.Meta_schema.context_key "delta" in
        (match
           Hns.Meta_client.store admin ~key ~ty:Hns.Meta_schema.string_ty
             meta_value
         with
        | Ok () -> ()
        | Error e -> Alcotest.failf "store failed: %s" (Hns.Errors.to_string e));
        Sim.Engine.sleep 2_000.0;
        let cached =
          Hns.Cache.peek
            (Hns.Meta_client.cache client)
            ~key:(Hns.Meta_schema.cache_key key)
        in
        let r =
          ( cached,
            meta_count client "hns.meta.delta_refreshes",
            meta_count client "hns.meta.full_refreshes",
            meta_count client "hns.meta.notify_kicks",
            meta_count client "hns.meta.remote_lookups",
            Hns.Meta_client.zone_serial client <> s0 )
        in
        stop ();
        r)
  in
  check_bool "new record landed in the cache by push" true cached;
  check_int "one delta refresh" 1 refreshes;
  check_int "only the initial preload was full" 1 fulls;
  check_int "one NOTIFY kick" 1 kicks;
  check_int "no per-record remote lookups" 0 remote;
  check_bool "tracked serial advanced" true serial_moved

let client_invalidates_deleted_records () =
  let w, setup = meta_world () in
  let gone, invalidations, lookup_after =
    in_sim w (fun () ->
        let _primary, client, admin, stop = setup () in
        let key = Hns.Meta_schema.context_key "alpha" in
        (match Hns.Meta_client.remove admin ~key with
        | Ok () -> ()
        | Error e ->
            Alcotest.failf "remove failed: %s" (Hns.Errors.to_string e));
        Sim.Engine.sleep 2_000.0;
        let gone =
          not
            (Hns.Cache.peek
               (Hns.Meta_client.cache client)
               ~key:(Hns.Meta_schema.cache_key key))
        in
        let lookup_after =
          Hns.Meta_client.lookup client ~key ~ty:Hns.Meta_schema.string_ty
        in
        let r =
          ( gone,
            meta_count client "hns.meta.delta_invalidations",
            lookup_after )
        in
        stop ();
        r)
  in
  check_bool "deleted record invalidated on the spot" true gone;
  check_int "one delta invalidation" 1 invalidations;
  check_bool "resolving it now reports absence" true (lookup_after = Ok None)

(* --- negative TTL derived from the zone SOA (RFC 2308) --- *)

let negative_ttl_follows_soa_minimum () =
  let w = make_world ~hosts:2 () in
  let effective, remote_after_two, remote_after_expiry =
    in_sim w (fun () ->
        (* A meta zone whose SOA advertises a 5 s negative TTL, well
           under the client's 60 s cap. *)
        let soa =
          {
            Dns.Rr.mname = Dns.Name.of_string "meta-primary";
            rname = Dns.Name.of_string "hostmaster";
            serial = 1l;
            refresh = 600l;
            retry = 60l;
            expire = 86_400l;
            minimum = 5l;
          }
        in
        let zone =
          Dns.Zone.create ~origin:Hns.Meta_schema.zone_origin ~soa []
        in
        let server = Dns.Server.create w.stacks.(0) () in
        Dns.Server.add_zone server zone;
        Dns.Server.start server;
        let client =
          Hns.Meta_client.create w.stacks.(1)
            ~meta_server:(Dns.Server.addr server)
            ~cache:(Hns.Cache.create ~mode:Hns.Cache.Demarshalled ())
            ~negative_ttl_ms:60_000.0 ()
        in
        let ghost = Hns.Meta_schema.context_key "ghost" in
        let ask () =
          ignore
            (Hns.Meta_client.lookup client ~key:ghost
               ~ty:Hns.Meta_schema.string_ty)
        in
        ask ();
        ask ();
        (* second hit the negative entry *)
        let two = meta_count client "hns.meta.remote_lookups" in
        Sim.Engine.sleep 6_000.0;
        (* past the SOA-derived 5 s, far under the 60 s cap *)
        ask ();
        ( Hns.Meta_client.effective_negative_ttl_ms client,
          two,
          meta_count client "hns.meta.remote_lookups" ))
  in
  check_float_near "SOA minimum wins under the cap" 5_000.0 effective;
  check_int "cached absence suppressed the requery" 1 remote_after_two;
  check_int "requeried once the SOA TTL lapsed" 2 remote_after_expiry

(* --- property: snapshot + IXFR deltas == fresh AXFR --- *)

let gen_ops =
  (* Update scripts over a small key space: set k := v, or delete k.
     Collisions and delete-then-re-add sequences are the point. *)
  QCheck.Gen.(
    list_size (int_range 1 24)
      (oneof
         [
           map2 (fun k v -> `Set (k mod 8, v)) small_int int;
           map (fun k -> `Del (k mod 8)) small_int;
         ]))

let arb_ops = QCheck.make ~print:(fun l -> Printf.sprintf "%d ops" (List.length l)) gen_ops

let render_records records =
  List.sort String.compare
    (List.map (fun rr -> Format.asprintf "%a" Dns.Rr.pp rr) records)

let ixfr_matches_axfr ops =
  let w = make_world ~hosts:1 () in
  in_sim w (fun () ->
      let zone = Dns.Zone.simple ~origin:zname [ mk_a "h.z" 7l ] in
      let server = Dns.Server.create w.stacks.(0) ~allow_update:true () in
      Dns.Server.add_zone server zone;
      (* Snapshot the zone at its starting serial, as a replica that
         transferred it once would hold it. *)
      let s0 = Dns.Zone.serial zone in
      let snapshot =
        match Dns.Zone.axfr_records zone with
        | { Dns.Rr.rdata = Dns.Rr.Soa soa; _ } :: data ->
            Dns.Zone.create ~origin:zname ~soa data
        | _ -> Alcotest.fail "AXFR payload did not lead with the SOA"
      in
      (* Drive the primary through the script via real UPDATE
         messages, so the journal is fed by the production path. *)
      let key k = Dns.Name.of_string (Printf.sprintf "k%d.z" k) in
      List.iteri
        (fun i op ->
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
            Dns.Server.handle server
              (Dns.Msg.update_request ~id:(i land 0xFFFF) ~zone:zname ops)
          in
          if reply.Dns.Msg.rcode <> Dns.Msg.No_error then
            Alcotest.failf "update %d refused" i)
        ops;
      (* Serve the IXFR exactly as the TCP loop would and replay it
         onto the snapshot. *)
      (match Dns.Ixfr.answers_for_zone zone ~serial:s0 with
      | `Fallback -> Alcotest.fail "journal truncated under 24 updates"
      | `Answers rrs -> (
          match Dns.Ixfr.parse_answers rrs with
          | Error m -> Alcotest.failf "unparseable IXFR answer: %s" m
          | Ok (Dns.Ixfr.Full _) ->
              Alcotest.fail "expected an incremental payload"
          | Ok (Dns.Ixfr.Unchanged _) ->
              if not (Int32.equal s0 (Dns.Zone.serial zone)) then
                Alcotest.fail "unchanged despite updates"
          | Ok (Dns.Ixfr.Deltas (soa, changes)) ->
              Dns.Zone.apply_delta snapshot
                {
                  Dns.Journal.from_serial = s0;
                  to_serial = soa.Dns.Rr.serial;
                  changes;
                };
              Dns.Zone.set_soa snapshot soa));
      render_records (Dns.Zone.axfr_records snapshot)
      = render_records (Dns.Zone.axfr_records zone))

let ixfr_equivalence_prop =
  QCheck.Test.make ~name:"snapshot + IXFR deltas == fresh AXFR" ~count:60
    arb_ops ixfr_matches_axfr

let suite =
  [
    Alcotest.test_case "NOTIFY+IXFR converges without polling" `Quick
      notify_ixfr_converges_without_polling;
    Alcotest.test_case "truncated journal falls back to AXFR" `Quick
      truncated_journal_falls_back_to_axfr;
    Alcotest.test_case "lost NOTIFY degrades to polling" `Quick
      lost_notify_degrades_to_polling;
    Alcotest.test_case "NOTIFY fan-out holds 8 in flight" `Quick
      notify_fanout_holds_eight_in_flight;
    Alcotest.test_case "client applies added records" `Quick
      client_applies_added_records;
    Alcotest.test_case "client invalidates deleted records" `Quick
      client_invalidates_deleted_records;
    Alcotest.test_case "negative TTL follows SOA minimum" `Quick
      negative_ttl_follows_soa_minimum;
    qtest ixfr_equivalence_prop;
  ]
