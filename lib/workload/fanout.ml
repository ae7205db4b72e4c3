(* Fan-out harness: a partitioned, replicated meta-store deployment on
   the virtual clock. See fanout.mli for the model. *)

type config = {
  label : string;
  partitions : int;
  replicas : int;
  chain_k : int;
  clients : int;
  reads_per_client : int;
  read_interval_ms : float;
  contexts_per_partition : int;
  rww_rounds : int;
  read_your_writes : bool;
}

type report = {
  config : config;
  reads : int;
  failed_reads : int;
  read_ms : Sim.Stats.t;
  root_qps : float;
  primary_qps : float;
  replica_qps : float;
  converge_ms : float;
  chain_depth : int;
  stale_reads : int;
  primary_fallbacks : int;
  referral_chases : int;
  referral_hits : int;
  routed_reads : int;
  duration_ms : float;
  sim_events : int;
}

let plabel i = Printf.sprintf "p%d" i
let ctx_name ~partition j = Printf.sprintf "c%d.%s" j (plabel partition)
let ctx_key ~partition j = Hns.Meta_schema.context_key (ctx_name ~partition j)

let validate cfg =
  if cfg.partitions <= 0 then invalid_arg "Fanout: partitions <= 0";
  if cfg.replicas < 0 then invalid_arg "Fanout: replicas < 0";
  if cfg.chain_k <= 0 then invalid_arg "Fanout: chain_k <= 0";
  if cfg.clients <= 0 then invalid_arg "Fanout: clients <= 0";
  if cfg.reads_per_client < 0 then invalid_arg "Fanout: reads_per_client < 0";
  if cfg.read_interval_ms <= 0.0 then invalid_arg "Fanout: read_interval <= 0";
  if cfg.contexts_per_partition <= 0 then
    invalid_arg "Fanout: contexts_per_partition <= 0";
  if cfg.rww_rounds < 0 then invalid_arg "Fanout: rww_rounds < 0";
  if cfg.rww_rounds > 0 && cfg.contexts_per_partition < 2 then
    invalid_arg "Fanout: rww needs a second context to write"

(* Position of replica [j] (0-based) in the k-ary chained tree over
   nodes [primary; replicas.(0); replicas.(1); ...]: node 0 is the
   primary at depth 0, the parent of node [m] is node [(m-1)/k]. *)
let tree_parent ~k j = j / k

let rec tree_depth ~k node =
  if node = 0 then 0 else 1 + tree_depth ~k ((node - 1) / k)

let str_record ~key v =
  Dns.Rr.make ~ttl:3600l key
    (Dns.Rr.Unspec (Wire.Xdr.to_string Hns.Meta_schema.string_ty (Wire.Value.str v)))

let fail_on what = function
  | Ok _ -> ()
  | Error e ->
      failwith (Printf.sprintf "fanout %s: %s" what (Hns.Errors.to_string e))

let run cfg =
  validate cfg;
  let engine = Sim.Engine.create () in
  let topo = Sim.Topology.create () in
  let net = Transport.Netstack.create engine topo in
  let stack n = Transport.Netstack.attach net (Sim.Topology.add_host topo n) in
  (* Referral glue carries only IPs: every meta server — root,
     partition primaries, replicas — answers on the common port. *)
  let port = Transport.Address.Well_known.hns_meta in
  let s_root = stack "fan-root" in
  let s_admin = stack "fan-admin" in
  let s_writer = stack "fan-writer" in
  let root = Dns.Server.create s_root ~port ~allow_update:true () in
  Dns.Server.add_zone root
    (Dns.Zone.simple ~origin:Hns.Meta_schema.zone_origin []);
  let partitions =
    Array.init cfg.partitions (fun i ->
        let cut = Hns.Meta_schema.partition_cut (plabel i) in
        let records =
          List.init cfg.contexts_per_partition (fun j ->
              str_record ~key:(ctx_key ~partition:i j) "UW-BIND")
        in
        let zone = Dns.Zone.simple ~origin:cut records in
        let primary =
          Dns.Server.create
            (stack (Printf.sprintf "fan-%s" (plabel i)))
            ~port ~allow_update:true ()
        in
        Dns.Server.add_zone primary zone;
        let replicas =
          Array.init cfg.replicas (fun j ->
              Dns.Server.create
                (stack (Printf.sprintf "fan-%sr%d" (plabel i) j))
                ~port ())
        in
        (cut, zone, primary, replicas))
  in
  let client_stacks =
    Array.init cfg.clients (fun c -> stack (Printf.sprintf "fan-c%03d" c))
  in
  let result = ref None in
  Sim.Engine.spawn engine ~name:"fanout" (fun () ->
      Dns.Server.start root;
      Array.iter
        (fun (_, _, primary, replicas) ->
          Dns.Server.start primary;
          Array.iter Dns.Server.start replicas)
        partitions;
      (* Chained replica trees: replica j pulls from its tree parent
         (the primary for the first [chain_k], an upper replica
         otherwise) and the parent's server NOTIFYs it — so one update
         wakes the tree level by level, each level bounded by the
         parent's notify fan-out. *)
      let secondaries =
        Array.map
          (fun (cut, _, primary, replicas) ->
            Array.mapi
              (fun j replica ->
                let parent = tree_parent ~k:cfg.chain_k j in
                let parent_server =
                  if parent = 0 then primary else replicas.(parent - 1)
                in
                let sec =
                  Dns.Secondary.attach replica
                    ~primary:(Dns.Server.addr parent_server)
                    ~zone:cut ~refresh_ms:60_000.0 ~mode:Dns.Secondary.Ixfr
                    ~chain_depth:(tree_depth ~k:cfg.chain_k (j + 1))
                    ()
                in
                Dns.Server.register_notify parent_server
                  (Dns.Server.addr replica);
                sec)
              replicas)
          partitions
      in
      (* Delegate each partition from the root: NS records at the cut
         (primary first — the glue-order contract) plus glue. *)
      let admin =
        Hns.Meta_client.create s_admin ~meta_server:(Dns.Server.addr root)
          ~cache:(Hns.Cache.create ~mode:Hns.Cache.Demarshalled ())
          ()
      in
      Array.iteri
        (fun i (_, _, primary, replicas) ->
          fail_on
            (Printf.sprintf "register_partition %s" (plabel i))
            (Hns.Admin.register_partition admin ~label:(plabel i)
               ~primary:(Dns.Server.addr primary)
               ~replicas:
                 (Array.to_list (Array.map Dns.Server.addr replicas))
               ()))
        partitions;
      let mk_client stack =
        Hns.Meta_client.create stack ~meta_server:(Dns.Server.addr root)
          ~read_your_writes:cfg.read_your_writes
          ~cache:(Hns.Cache.create ~mode:Hns.Cache.Demarshalled ())
          ()
      in
      let mclients = Array.map mk_client client_stacks in
      (* Warm-up: one read per partition chases each referral once, so
         the measured phase runs on cached cuts. *)
      Array.iter
        (fun mc ->
          for i = 0 to cfg.partitions - 1 do
            fail_on "warm lookup"
              (Hns.Meta_client.lookup mc
                 ~key:(ctx_key ~partition:i 0)
                 ~ty:Hns.Meta_schema.string_ty)
          done)
        mclients;
      (* Measured open read phase: every client paces
         [reads_per_client] cold reads (cache flushed each time, so
         each is a real remote round trip), spread round-robin over
         partitions and contexts. *)
      let q_before server = Dns.Server.queries_served server in
      let root_q0 = q_before root in
      let prim_q0 =
        Array.map (fun (_, _, p, _) -> q_before p) partitions
      in
      let rep_q0 =
        Array.map (fun (_, _, _, rs) -> Array.map q_before rs) partitions
      in
      let t0 = Sim.Engine.time () in
      let read_ms = Sim.Stats.create ~name:"fanout.read_ms" () in
      let failed = ref 0 in
      let finished = ref 0 in
      let all_done = Sim.Engine.Ivar.create () in
      Array.iteri
        (fun c mc ->
          Sim.Engine.spawn_child ~name:"fanout.client" (fun () ->
              Sim.Engine.sleep
                (cfg.read_interval_ms *. float_of_int c
                /. float_of_int cfg.clients);
              for r = 0 to cfg.reads_per_client - 1 do
                if r > 0 then Sim.Engine.sleep cfg.read_interval_ms;
                let p = (c + r) mod cfg.partitions in
                let j = r mod cfg.contexts_per_partition in
                Hns.Cache.flush (Hns.Meta_client.cache mc);
                let t = Sim.Engine.time () in
                (match
                   Hns.Meta_client.lookup mc
                     ~key:(ctx_key ~partition:p j)
                     ~ty:Hns.Meta_schema.string_ty
                 with
                | Ok (Some _) -> ()
                | Ok None | Error _ -> incr failed);
                Sim.Stats.add read_ms (Sim.Engine.time () -. t)
              done;
              incr finished;
              if !finished = cfg.clients then
                ignore (Sim.Engine.Ivar.fill_if_empty all_done ())))
        mclients;
      Sim.Engine.Ivar.read all_done;
      let duration_ms = Float.max 1.0 (Sim.Engine.time () -. t0) in
      let duration_s = duration_ms /. 1000.0 in
      let root_qps = float_of_int (q_before root - root_q0) /. duration_s in
      let primary_qps =
        let total =
          Array.to_list partitions
          |> List.mapi (fun i (_, _, p, _) -> q_before p - prim_q0.(i))
          |> List.fold_left ( + ) 0
        in
        float_of_int total /. float_of_int cfg.partitions /. duration_s
      in
      let replica_qps =
        if cfg.replicas = 0 then 0.0
        else
          let total = ref 0 in
          Array.iteri
            (fun i (_, _, _, rs) ->
              Array.iteri
                (fun j r -> total := !total + (q_before r - rep_q0.(i).(j)))
                rs)
            partitions;
          float_of_int !total
          /. float_of_int (cfg.partitions * cfg.replicas)
          /. duration_s
      in
      (* Convergence: one dynamic update on partition 0, measured to
         the instant the whole replica tree has caught up. The write
         routes through the admin's learned cut (or chases it via the
         Not_zone probe on first contact). *)
      let _, zone0, _, _ = partitions.(0) in
      let tc0 = Sim.Engine.time () in
      fail_on "convergence store"
        (Hns.Meta_client.store admin
           ~key:(ctx_key ~partition:0 0)
           ~ty:Hns.Meta_schema.string_ty
           (Wire.Value.str "UW-BIND-V2"));
      let target = Dns.Zone.serial zone0 in
      let rec wait () =
        if
          Array.for_all
            (fun s -> Int32.compare (Dns.Secondary.serial s) target >= 0)
            secondaries.(0)
        then ()
        else if Sim.Engine.time () -. tc0 > 55_000.0 then
          failwith "fanout: replica tree did not converge before the backstop"
        else begin
          Sim.Engine.sleep 2.0;
          wait ()
        end
      in
      wait ();
      let converge_ms = Sim.Engine.time () -. tc0 in
      (* Read-your-writes probe: a writer updates a record and reads
         it straight back (cold), [rww_rounds] times. With pinning on
         the routed read is restricted to caught-up replicas (falling
         back to the partition primary), so it can never observe a
         value older than its own write. *)
      let stale = ref 0 in
      if cfg.rww_rounds > 0 then begin
        let writer = mk_client s_writer in
        let rww_key = ctx_key ~partition:0 1 in
        fail_on "rww warm"
          (Hns.Meta_client.lookup writer ~key:rww_key
             ~ty:Hns.Meta_schema.string_ty);
        for i = 1 to cfg.rww_rounds do
          let v = Printf.sprintf "v%04d" i in
          fail_on "rww store"
            (Hns.Meta_client.store writer ~key:rww_key
               ~ty:Hns.Meta_schema.string_ty (Wire.Value.str v));
          Hns.Cache.flush (Hns.Meta_client.cache writer);
          (match
             Hns.Meta_client.lookup writer ~key:rww_key
               ~ty:Hns.Meta_schema.string_ty
           with
          | Ok (Some got) when String.equal (Wire.Value.get_str got) v -> ()
          | Ok _ | Error _ -> incr stale);
          (* Space the rounds out so each one races a fresh
             propagation window, not the tail of the last. *)
          Sim.Engine.sleep 300.0
        done
      end;
      let chain_depth =
        Array.fold_left
          (fun acc secs ->
            Array.fold_left
              (fun acc s -> max acc (Dns.Secondary.chain_depth s))
              acc secs)
          0 secondaries
      in
      let sum_clients name =
        Array.fold_left
          (fun acc mc -> acc + Obs.Metrics.read (Hns.Meta_client.metrics mc) name)
          0 mclients
      in
      let sum_sets name =
        Array.fold_left
          (fun acc mc ->
            List.fold_left
              (fun acc (_, rs) -> acc + Obs.Metrics.read (Dns.Replica_set.metrics rs) name)
              acc (Hns.Meta_client.partitions mc))
          0 mclients
      in
      (* Tear down so the engine drains: detached secondaries stop
         re-arming their poll backstop, stopped servers close their
         service loops. *)
      Array.iter (Array.iter Dns.Secondary.detach) secondaries;
      Array.iter
        (fun (_, _, primary, replicas) ->
          Array.iter Dns.Server.stop replicas;
          Dns.Server.stop primary)
        partitions;
      Dns.Server.stop root;
      result :=
        Some
          {
            config = cfg;
            reads = cfg.clients * cfg.reads_per_client;
            failed_reads = !failed;
            read_ms;
            root_qps;
            primary_qps;
            replica_qps;
            converge_ms;
            chain_depth;
            stale_reads = !stale;
            primary_fallbacks = sum_sets "dns.replica.primary_fallbacks";
            referral_chases = sum_clients "hns.meta.referral_chases";
            referral_hits = sum_clients "hns.meta.referral_hits";
            routed_reads = sum_sets "dns.replica.routed";
            duration_ms;
            sim_events = 0;
          });
  Sim.Engine.run engine;
  match !result with
  | Some r -> { r with sim_events = Sim.Engine.events_executed engine }
  | None -> failwith "Fanout.run: harness process did not complete"

(* --- presets ------------------------------------------------------ *)

let point ?(label = "point") ?(partitions = 2) ?(replicas = 0) ?(chain_k = 2)
    ?(clients = 6) ?(reads_per_client = 16) ?(read_interval_ms = 25.0)
    ?(contexts_per_partition = 4) ?(rww_rounds = 0) ?(read_your_writes = true)
    () =
  {
    label;
    partitions;
    replicas;
    chain_k;
    clients;
    reads_per_client;
    read_interval_ms;
    contexts_per_partition;
    rww_rounds;
    read_your_writes;
  }

(* The scaling sweep: at point [m] the client fleet is [3m] strong;
   the replicated arm also grows the replica tree to [m] per
   partition, the baseline arm leaves every read on the partition
   primary. Flat-vs-linear primary QPS across the points is the
   headline. *)
let sweep_scales = [ 2; 4; 8 ]

let sweep () =
  List.map
    (fun m ->
      ( point
          ~label:(Printf.sprintf "single.x%d" m)
          ~replicas:0 ~clients:(3 * m) (),
        point
          ~label:(Printf.sprintf "tree.x%d" m)
          ~replicas:m ~clients:(3 * m) () ))
    sweep_scales

let rww_config ~pinned () =
  point
    ~label:(if pinned then "rww_pinned" else "rww_unpinned")
    ~replicas:3 ~clients:2 ~reads_per_client:4 ~rww_rounds:12
    ~read_your_writes:pinned ()

(* --- reporting ---------------------------------------------------- *)

let pct stats p =
  if Sim.Stats.count stats = 0 then 0.0 else Sim.Stats.percentile stats p

let pp_report ppf r =
  let c = r.config in
  Format.fprintf ppf
    "  %s: %d partitions x (1 primary + %d replicas, k=%d tree), %d clients@."
    c.label c.partitions c.replicas c.chain_k c.clients;
  Format.fprintf ppf
    "    reads %d (%d failed)  p50 %.1f  p99 %.1f ms  routed %d  fallbacks %d@."
    r.reads r.failed_reads (pct r.read_ms 50.0) (pct r.read_ms 99.0)
    r.routed_reads r.primary_fallbacks;
  Format.fprintf ppf
    "    qps: root %.1f  primary %.1f  replica %.1f   converge %.1f ms \
     (depth %d)@."
    r.root_qps r.primary_qps r.replica_qps r.converge_ms r.chain_depth;
  Format.fprintf ppf
    "    referrals: %d chased, %d cache hits;  rww: %d/%d stale;  %d sim \
     events@."
    r.referral_chases r.referral_hits r.stale_reads c.rww_rounds r.sim_events

let one_sample name v =
  let s = Sim.Stats.create ~name () in
  Sim.Stats.add s v;
  s

let report_rows r =
  let base = Printf.sprintf "propagation.fanout.%s" r.config.label in
  [
    (base ^ ".primary_qps", one_sample (base ^ ".primary_qps") r.primary_qps);
    (base ^ ".converge_ms", one_sample (base ^ ".converge_ms") r.converge_ms);
    (base ^ ".read_ms", r.read_ms);
  ]
  @
  if r.config.rww_rounds > 0 then
    [
      ( base ^ ".stale_reads",
        one_sample (base ^ ".stale_reads") (float_of_int r.stale_reads) );
    ]
  else []
