(* Tests for the partitioned, replicated meta-store: context-delegated
   partitions behind referrals, IXFR-chained replica trees, durable
   replica re-bootstrap, and read-your-writes pinning over the
   load-aware replica routing. *)

open Helpers

let meta_port = Transport.Address.Well_known.hns_meta

let str_record ?(ttl = 3600l) key v =
  Dns.Rr.make ~ttl key
    (Dns.Rr.Unspec
       (Wire.Xdr.to_string Hns.Meta_schema.string_ty (Wire.Value.str v)))

let ctx_key name = Hns.Meta_schema.context_key name
let routed_reads rs = Obs.Metrics.read (Dns.Replica_set.metrics rs) "dns.replica.routed"

let mk_meta_client ?replica_set ?read_your_writes stack ~meta_server =
  Hns.Meta_client.create stack ~meta_server ?replica_set ?read_your_writes
    ~cache:(Hns.Cache.create ~mode:Hns.Cache.Demarshalled ())
    ()

let get_ok_meta ~msg = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" msg (Hns.Errors.to_string e)

let read_str client key =
  Hns.Cache.flush (Hns.Meta_client.cache client);
  match
    Hns.Meta_client.lookup client ~key ~ty:Hns.Meta_schema.string_ty
  with
  | Ok (Some v) -> Some (Wire.Value.get_str v)
  | Ok None -> None
  | Error e -> Alcotest.failf "lookup failed: %s" (Hns.Errors.to_string e)

(* --- delegation: resolves chase referrals once, then ride the cut --- *)

(* A root meta server delegating two partitions, each holding one
   context record. All servers share the meta port: referral glue
   carries only IPs. *)
let partitioned_world w =
  let root = Dns.Server.create w.stacks.(0) ~port:meta_port ~allow_update:true () in
  Dns.Server.add_zone root
    (Dns.Zone.simple ~origin:Hns.Meta_schema.zone_origin []);
  Dns.Server.start root;
  let partition i stack value =
    let label = Printf.sprintf "p%d" i in
    let cut = Hns.Meta_schema.partition_cut label in
    let zone =
      Dns.Zone.simple ~origin:cut
        [ str_record (ctx_key (Printf.sprintf "c0.%s" label)) value ]
    in
    let primary = Dns.Server.create stack ~port:meta_port ~allow_update:true () in
    Dns.Server.add_zone primary zone;
    Dns.Server.start primary;
    (label, cut, primary)
  in
  let p0 = partition 0 w.stacks.(1) "UW-BIND" in
  let p1 = partition 1 w.stacks.(2) "XEROX-CH" in
  let admin = mk_meta_client w.stacks.(3) ~meta_server:(Dns.Server.addr root) in
  List.iter
    (fun (label, _, primary) ->
      get_ok_meta ~msg:"register_partition"
        (Hns.Admin.register_partition admin ~label
           ~primary:(Dns.Server.addr primary) ~replicas:[] ()))
    [ p0; p1 ];
  (root, p0, p1, admin)

let resolve_crosses_partitions_and_caches_the_cut () =
  let w = make_world ~hosts:5 () in
  let hits0 = global_count "hns.meta.referral_hits" in
  let v0, v1, chases, v0_again, chases_after, hits, cuts, fleet =
    in_sim w (fun () ->
        let root, (_, cut0, _), (_, cut1, _), admin = partitioned_world w in
        let client =
          mk_meta_client w.stacks.(4) ~meta_server:(Dns.Server.addr root)
        in
        let v0 = read_str client (ctx_key "c0.p0") in
        let v1 = read_str client (ctx_key "c0.p1") in
        let chases = meta_count client "hns.meta.referral_chases" in
        (* Cold again (cache flushed), but the cuts are learned: the
           reads go straight to the owning partitions. *)
        let v0_again = read_str client (ctx_key "c0.p0") in
        ignore (read_str client (ctx_key "c0.p1"));
        let cuts =
          List.map (fun (cut, _) -> cut) (Hns.Meta_client.partitions client)
        in
        ( v0,
          v1,
          chases,
          v0_again,
          meta_count client "hns.meta.referral_chases",
          meta_count client "hns.meta.referral_hits",
          List.map
            (fun c ->
              List.exists (fun cut -> Dns.Name.equal cut c) cuts)
            [ cut0; cut1 ],
          List.map Hns.Meta_client.metrics [ admin; client ] ))
  in
  check_fleet_sum "hns.meta.referral_hits" ~before:hits0 fleet;
  check (Alcotest.option Alcotest.string) "partition 0 record" (Some "UW-BIND") v0;
  check (Alcotest.option Alcotest.string) "partition 1 record" (Some "XEROX-CH") v1;
  check_int "one chase per partition" 2 chases;
  check (Alcotest.option Alcotest.string) "re-read via the cached cut"
    (Some "UW-BIND") v0_again;
  check_int "no further chases" 2 chases_after;
  check_bool "repeat reads hit the cached cut" true (hits >= 2);
  check_bool "both cuts cached" true (List.for_all Fun.id cuts)

(* --- chained tree: one update wakes the levels in order --- *)

let chained_tree_converges_level_by_level () =
  let w = make_world ~hosts:5 () in
  let zname = Dns.Name.of_string "z" in
  let serial_ok, kicks, depths, fulls =
    in_sim w (fun () ->
        let zone =
          Dns.Zone.simple ~origin:zname
            [ Dns.Rr.make (Dns.Name.of_string "h.z") (Dns.Rr.A 7l) ]
        in
        let primary = Dns.Server.create w.stacks.(0) ~allow_update:true () in
        Dns.Server.add_zone primary zone;
        Dns.Server.start primary;
        (* A 3-deep chain (k = 1): r1 pulls from the primary, r2 from
           r1, r3 from r2, each NOTIFY-wired to its parent. The poll
           backstop sits a minute out, so sub-minute convergence is
           push-driven, level by level. *)
        let attach_level parent depth stack =
          let server = Dns.Server.create stack () in
          Dns.Server.start server;
          let sec =
            Dns.Secondary.attach server ~primary:(Dns.Server.addr parent)
              ~zone:zname ~refresh_ms:60_000.0 ~mode:Dns.Secondary.Ixfr
              ~chain_depth:depth ()
          in
          Dns.Server.register_notify parent (Dns.Server.addr server);
          (server, sec)
        in
        let s1, sec1 = attach_level primary 1 w.stacks.(1) in
        let s2, sec2 = attach_level s1 2 w.stacks.(2) in
        let _s3, sec3 = attach_level s2 3 w.stacks.(3) in
        (match
           Dns.Update.add_rr w.stacks.(4) ~server:(Dns.Server.addr primary)
             ~zone:zname
             (Dns.Rr.make (Dns.Name.of_string "new.z") (Dns.Rr.A 9l))
         with
        | Ok () -> ()
        | Error e -> Alcotest.failf "update failed: %a" Dns.Update.pp_error e);
        Sim.Engine.sleep 2_000.0;
        let target = Dns.Zone.serial zone in
        let secs = [ sec1; sec2; sec3 ] in
        let count name s = secondary_count s name in
        let r =
          ( List.for_all
              (fun s -> Int32.equal (Dns.Secondary.serial s) target)
              secs,
            List.map (count "dns.secondary.notify_kicks") secs,
            List.map Dns.Secondary.chain_depth secs,
            List.map (count "dns.secondary.full_transfers") secs )
        in
        List.iter Dns.Secondary.detach secs;
        r)
  in
  check_bool "every level converged inside the poll window" true serial_ok;
  check (Alcotest.list Alcotest.int) "one cascaded NOTIFY per level"
    [ 1; 1; 1 ] kicks;
  check (Alcotest.list Alcotest.int) "depths recorded down the chain"
    [ 1; 2; 3 ] depths;
  check (Alcotest.list Alcotest.int) "the update travelled as deltas"
    [ 1; 1; 1 ] fulls

(* --- replica crash + durable re-bootstrap, no failed resolves --- *)

let crash_rebootstrap_serves_through () =
  let w = make_world ~hosts:4 () in
  let routed0 = global_count "dns.replica.routed" in
  let failures, routed_mid, routed_after, recovered_full, serial_ok, rs =
    in_sim w (fun () ->
        let zone =
          Dns.Zone.simple ~origin:Hns.Meta_schema.zone_origin
            [ str_record (ctx_key "alpha") "UW-BIND" ]
        in
        let primary = Dns.Server.create w.stacks.(0) ~allow_update:true () in
        Dns.Server.add_zone primary zone;
        Dns.Server.start primary;
        let replica = Dns.Server.create w.stacks.(1) () in
        Dns.Server.start replica;
        let sec =
          Dns.Secondary.attach replica ~primary:(Dns.Server.addr primary)
            ~zone:Hns.Meta_schema.zone_origin ~refresh_ms:60_000.0 ()
        in
        Dns.Server.register_notify primary (Dns.Server.addr replica);
        (* The replica spills its copy to a durable store, as a
           production replica would; the crash wipes volatile state
           and recovery rebuilds from snapshot + WAL tail. *)
        let disk = Store.Disk.create () in
        let dur =
          match Dns.Server.zones replica with
          | [ z ] -> Dns.Durable.attach disk z
          | _ -> Alcotest.fail "replica does not hold exactly its copy"
        in
        let rs =
          Dns.Replica_set.create w.stacks.(2)
            ~zone:Hns.Meta_schema.zone_origin
            ~primary:(Dns.Server.addr primary)
            ~replicas:[ Dns.Server.addr replica ]
        in
        let client =
          mk_meta_client w.stacks.(2) ~replica_set:rs
            ~meta_server:(Dns.Server.addr primary)
        in
        let admin =
          mk_meta_client w.stacks.(3) ~meta_server:(Dns.Server.addr primary)
        in
        let failures = ref 0 in
        let read_burst n gap =
          for _ = 1 to n do
            Hns.Cache.flush (Hns.Meta_client.cache client);
            (match
               Hns.Meta_client.lookup client ~key:(ctx_key "alpha")
                 ~ty:Hns.Meta_schema.string_ty
             with
            | Ok (Some _) -> ()
            | Ok None | Error _ -> incr failures);
            Sim.Engine.sleep gap
          done
        in
        read_burst 6 50.0;
        (* A write lands a delta in the replica's durable log before
           the crash. *)
        get_ok_meta ~msg:"pre-crash store"
          (Hns.Meta_client.store admin ~key:(ctx_key "beta")
             ~ty:Hns.Meta_schema.string_ty (Wire.Value.str "SUN-YP"));
        Sim.Engine.sleep 1_000.0;
        (* Crash: the replica process dies mid-traffic. Reads keep
           flowing — the first one eats the timeout, quarantines the
           member, and fails over to the primary inside the same
           lookup. *)
        Dns.Secondary.detach sec;
        Dns.Server.stop replica;
        Dns.Durable.detach dur;
        Store.Disk.crash disk;
        read_burst 6 400.0;
        let routed_mid = routed_reads rs in
        (* Re-bootstrap from the durable image: a fresh server on the
           same address adopts the recovered zone and catches up by
           IXFR from its durable serial — no full re-transfer. *)
        let rec_zone, recovered_full =
          match Dns.Durable.recover disk with
          | None -> Alcotest.fail "durable image did not survive the crash"
          | Some r -> (r.Dns.Durable.zone, 0)
        in
        let replica' = Dns.Server.create w.stacks.(1) () in
        Dns.Server.start replica';
        let sec' =
          Dns.Secondary.attach replica' ~primary:(Dns.Server.addr primary)
            ~zone:Hns.Meta_schema.zone_origin ~refresh_ms:60_000.0
            ~recovered:rec_zone ()
        in
        Dns.Server.register_notify primary (Dns.Server.addr replica');
        (* Past the quarantine window the set probes the member again
           and routes reads back onto it. *)
        Sim.Engine.sleep 3_100.0;
        Dns.Replica_set.refresh_serials rs;
        read_burst 6 50.0;
        let r =
          ( !failures,
            routed_mid,
            routed_reads rs,
            recovered_full + secondary_count sec' "dns.secondary.full_transfers",
            Int32.equal (Dns.Secondary.serial sec') (Dns.Zone.serial zone),
            rs )
        in
        Dns.Secondary.detach sec';
        r)
  in
  check_fleet_sum "dns.replica.routed" ~before:routed0 [ Dns.Replica_set.metrics rs ];
  check_int "no resolve failed across crash and recovery" 0 failures;
  check_bool "reads kept routing to the replica again" true
    (routed_after > routed_mid);
  check_int "durable bootstrap needed no full transfer" 0 recovered_full;
  check_bool "recovered replica caught up to the primary" true serial_ok

(* --- read-your-writes pinning, through the fan-out harness --- *)

let rww_pinning_closes_the_staleness_window () =
  let pinned = Workload.Fanout.run (Workload.Fanout.rww_config ~pinned:true ()) in
  let unpinned =
    Workload.Fanout.run (Workload.Fanout.rww_config ~pinned:false ())
  in
  check_int "no failed reads (pinned)" 0 pinned.Workload.Fanout.failed_reads;
  check_int "no failed reads (unpinned)" 0 unpinned.Workload.Fanout.failed_reads;
  check_int "pinning: zero stale own-write reads" 0
    pinned.Workload.Fanout.stale_reads;
  check_bool "without pinning the staleness window is observable" true
    (unpinned.Workload.Fanout.stale_reads > 0)

(* --- property: routed reads == primary reads once serials converge --- *)

let gen_writes =
  (* Write scripts over a small context space; keys 4-5 are never
     written, so the equivalence also covers definite absence. *)
  QCheck.Gen.(
    list_size (int_range 1 10)
      (map2 (fun k v -> (k mod 4, v mod 1000)) small_int small_int))

let arb_writes =
  QCheck.make
    ~print:(fun l ->
      String.concat ";"
        (List.map (fun (k, v) -> Printf.sprintf "k%d:=%d" k v) l))
    gen_writes

let routed_matches_primary writes =
  let w = make_world ~hosts:4 () in
  in_sim w (fun () ->
      let zone =
        Dns.Zone.simple ~origin:Hns.Meta_schema.zone_origin
          [ str_record (ctx_key "k0") "seed" ]
      in
      let primary = Dns.Server.create w.stacks.(0) ~allow_update:true () in
      Dns.Server.add_zone primary zone;
      Dns.Server.start primary;
      let replica = Dns.Server.create w.stacks.(1) () in
      Dns.Server.start replica;
      let sec =
        Dns.Secondary.attach replica ~primary:(Dns.Server.addr primary)
          ~zone:Hns.Meta_schema.zone_origin ~refresh_ms:60_000.0 ()
      in
      Dns.Server.register_notify primary (Dns.Server.addr replica);
      let direct =
        mk_meta_client w.stacks.(3) ~meta_server:(Dns.Server.addr primary)
      in
      List.iter
        (fun (k, v) ->
          get_ok_meta ~msg:"property store"
            (Hns.Meta_client.store direct
               ~key:(ctx_key (Printf.sprintf "k%d" k))
               ~ty:Hns.Meta_schema.string_ty
               (Wire.Value.str (string_of_int v))))
        writes;
      (* NOTIFY + IXFR settle well inside this window. *)
      Sim.Engine.sleep 2_000.0;
      let rs =
        Dns.Replica_set.create w.stacks.(2)
          ~zone:Hns.Meta_schema.zone_origin
          ~primary:(Dns.Server.addr primary)
          ~replicas:[ Dns.Server.addr replica ]
      in
      Dns.Replica_set.refresh_serials rs;
      let routed =
        mk_meta_client w.stacks.(2) ~replica_set:rs
          ~meta_server:(Dns.Server.addr primary)
      in
      let agree =
        List.for_all
          (fun k ->
            let key = ctx_key (Printf.sprintf "k%d" k) in
            match (read_str routed key, read_str direct key) with
            | Some a, Some b -> String.equal a b
            | None, None -> true
            | _ -> false)
          [ 0; 1; 2; 3; 4; 5 ]
      in
      let r = agree && routed_reads rs > 0 in
      Dns.Secondary.detach sec;
      r)

let routed_equivalence_prop =
  QCheck.Test.make
    ~name:"routed reads == primary reads once serials converge" ~count:20
    arb_writes routed_matches_primary

(* --- determinism: same config, byte-identical report --- *)

let render_report (r : Workload.Fanout.report) =
  let rows =
    String.concat "\n"
      (List.map
         (fun (name, s) ->
           Printf.sprintf "%s n=%d mean=%.6f p50=%.6f p99=%.6f" name
             (Sim.Stats.count s) (Sim.Stats.mean s)
             (Sim.Stats.percentile s 50.0)
             (Sim.Stats.percentile s 99.0))
         (Workload.Fanout.report_rows r))
  in
  Format.asprintf "%a|events=%d|routed=%d|chases=%d|hits=%d\n%s"
    Workload.Fanout.pp_report r r.Workload.Fanout.sim_events
    r.Workload.Fanout.routed_reads r.Workload.Fanout.referral_chases
    r.Workload.Fanout.referral_hits rows

let fanout_runs_are_deterministic () =
  let cfg =
    Workload.Fanout.point ~label:"det" ~replicas:2 ~clients:3
      ~reads_per_client:5 ()
  in
  let a = render_report (Workload.Fanout.run cfg) in
  let b = render_report (Workload.Fanout.run cfg) in
  check_string "two identical runs, one report" a b

(* --- the fan-out entry's gates, each on a real run --- *)

let gate_point () =
  Workload.Fanout.run
    (Workload.Fanout.point ~label:"gate" ~replicas:2 ~clients:3 ~reads_per_client:5 ())

let fanout_gate_budget () =
  let r = gate_point () and budget = Experiments.fanout_budget in
  check_strings "at the budget" []
    (Experiments.fanout_gate { r with Workload.Fanout.sim_events = budget });
  check_strings "one event over"
    [ Printf.sprintf "FAIL: gate executed %d sim events (budget %d)" (budget + 1) budget ]
    (Experiments.fanout_gate { r with Workload.Fanout.sim_events = budget + 1 })

let fanout_gate_failed_reads () =
  let r = gate_point () in
  check_strings "healthy run" [] (Experiments.fanout_gate r);
  check_strings "one failed read" [ "FAIL: gate had 1 failed reads" ]
    (Experiments.fanout_gate { r with Workload.Fanout.failed_reads = 1 })

let fanout_gate_pinned_staleness () =
  let run pinned = Workload.Fanout.run (Workload.Fanout.rww_config ~pinned ()) in
  let pinned = run true and unpinned = run false in
  check_strings "a stale pinned read fails"
    [ "FAIL: pinned read-your-writes saw 1 stale own-write reads" ]
    (Experiments.fanout_gate { pinned with Workload.Fanout.stale_reads = 1 });
  check_int "unpinned reads are all stale" 12 unpinned.Workload.Fanout.stale_reads;
  check_strings "unpinned staleness passes" [] (Experiments.fanout_gate unpinned)

let suite =
  [
    Alcotest.test_case "resolve crosses partitions and caches the cut" `Quick
      resolve_crosses_partitions_and_caches_the_cut;
    Alcotest.test_case "chained tree converges level by level" `Quick
      chained_tree_converges_level_by_level;
    Alcotest.test_case "crash + durable re-bootstrap serves through" `Quick
      crash_rebootstrap_serves_through;
    Alcotest.test_case "rww pinning closes the staleness window" `Quick
      rww_pinning_closes_the_staleness_window;
    qtest routed_equivalence_prop;
    Alcotest.test_case "fanout runs are deterministic" `Quick
      fanout_runs_are_deterministic;
    Alcotest.test_case "fanout gate: sim-event budget" `Quick fanout_gate_budget;
    Alcotest.test_case "fanout gate: failed reads" `Quick fanout_gate_failed_reads;
    Alcotest.test_case "fanout gate: pinned staleness" `Quick
      fanout_gate_pinned_staleness;
  ]
