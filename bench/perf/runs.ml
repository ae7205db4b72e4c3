(* The four benchmark workloads, built on the existing harnesses and
   public APIs. Each [run] is deterministic in its seed and returns the
   raw measurements the metric layer turns into named numbers. *)

module O = Workload.Openloop

type workload = Warm_fleet | Cold_legacy | Meta_writes | Load_suite

let all = [ Warm_fleet; Cold_legacy; Meta_writes; Load_suite ]

let name = function
  | Warm_fleet -> "warm-fleet"
  | Cold_legacy -> "cold-legacy"
  | Meta_writes -> "meta-writes"
  | Load_suite -> "load-suite"

let of_name s = List.find_opt (fun w -> name w = s) all

(* [Setup] is the 1 ms window: build, fleet attach and warm-up with no
   measured traffic. [Traced] is short enough that every span of the
   run fits the tracer's 8192-span ring. *)
type size = Setup | Smoke | Traced | Full

let size_name = function
  | Setup -> "setup"
  | Smoke -> "smoke"
  | Traced -> "traced"
  | Full -> "full"

let size_of_name s =
  List.find_opt (fun z -> size_name z = s) [ Setup; Smoke; Traced; Full ]

(* Latency limits behind [slo_ok_frac]. *)
let resolve_limit_ms = 150.0
let read_limit_ms = 25.0
let write_limit_ms = 100.0

type outcome = {
  attempted : int;  (** resolves, reads and writes issued *)
  failed : int;
  lat : Sim.Stats.t;  (** resolves / reads, from the scheduled arrival *)
  slo_ok : int;  (** operations that succeeded within their limit *)
  writes : Sim.Stats.t;  (** scheduled arrival -> durable update ack *)
  converge : Sim.Stats.t;  (** ack -> last replica of the tree holds it *)
  stale_reads : int;
  events : int;  (** engine events executed *)
  window_s : float;  (** virtual seconds of measured traffic *)
  bind_qps : float;
  meta_primary_qps : float;
  replica_qps : float;
  names : int;  (** distinct names the workload can touch *)
  checks : (string * bool * string) list;
}

let merge_stats name parts =
  let s = Sim.Stats.create ~name () in
  List.iter (fun p -> List.iter (Sim.Stats.add s) (Sim.Stats.samples p)) parts;
  s

let count_within limit stats =
  List.fold_left
    (fun n l -> if l <= limit then n + 1 else n)
    0 (Sim.Stats.samples stats)

(* --- open-loop confederation workloads ------------------------------ *)

let bench_config label =
  List.find (fun c -> c.O.label = label) (O.bench_configs ())

(* Resize a config's measured window, keeping the flash crowd at the
   same fraction of it. *)
let with_window (c : O.config) window_ms =
  let k = window_ms /. c.duration_ms in
  let flash =
    Option.map
      (fun (f : O.flash) -> { f with at_ms = f.at_ms *. k; len_ms = f.len_ms *. k })
      c.flash
  in
  { c with duration_ms = window_ms; flash }

(* The committed flash.decayed config as it is; only the window grows
   (see [window_ms]), with the flash crowd scaled along. *)
let warm_config ~seed = { (bench_config "flash.decayed") with label = "warm-fleet"; seed }

(* Not a traffic mix any harness runs: a stress shape that moves the
   work onto the legacy path. 90% of arrivals go to the bundle-less
   pool; 1024 names at Zipf 0.8 and a 15 s churn keep the working set
   out of every cache; 5 req/s stays below the 6-8 req/s where this mix
   starts failing resolves (see the ladder). *)
let cold_config ~seed =
  {
    (bench_config "flash.decayed") with
    label = "cold-legacy";
    seed;
    legacy_fraction = 0.9;
    names = 1024;
    zipf_s = 0.8;
    churn_every_ms = 15_000.0;
    flash = None;
    arrival = O.Poisson { rate_per_s = 5.0 };
  }

(* The partition storm config is left out: it fails resolves by design
   (its partitions cut legacy traffic off from the NSM), and every
   workload here must complete with no failed operation. *)
let suite_configs ~seed =
  List.filter_map
    (fun (c : O.config) -> if c.label = "storm" then None else Some { c with seed })
    (O.bench_configs ())

let window_ms w size =
  match (w, size) with
  | _, Setup -> 1.0
  | (Warm_fleet | Cold_legacy), Smoke -> 20_000.0
  | Meta_writes, Smoke -> 2_000.0
  | Load_suite, Smoke -> 8_000.0
  | Warm_fleet, Traced -> 30_000.0
  | Cold_legacy, Traced -> 60_000.0
  | Meta_writes, Traced -> 12_000.0
  | Load_suite, Traced -> 15_000.0
  | Warm_fleet, Full -> 3_600_000.0
  | Cold_legacy, Full -> 14_400_000.0
  | Meta_writes, Full -> 600_000.0
  | Load_suite, Full -> 360_000.0

let of_reports (reports : O.report list) =
  let lat = merge_stats "resolve" (List.map (fun (r : O.report) -> r.all) reports) in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 reports in
  let isum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  let window_s = sum (fun r -> r.config.duration_ms /. 1000.0) in
  let weighted f = sum (fun r -> f r *. r.config.duration_ms /. 1000.0) /. window_s in
  let failed = isum (fun r -> r.errors) in
  {
    attempted = isum (fun r -> r.arrivals);
    failed;
    lat;
    (* A lower bound: [all] holds failed resolves too, and which ones
       failed is not reported, so every failure is taken off. Exact
       when none fails, which a check requires. *)
    slo_ok = max 0 (count_within resolve_limit_ms lat - failed);
    writes = Sim.Stats.create ~name:"writes" ();
    converge = Sim.Stats.create ~name:"converge" ();
    stale_reads = 0;
    events = isum (fun r -> r.sim_events);
    window_s;
    bind_qps = weighted (fun r -> r.bind_qps);
    meta_primary_qps = weighted (fun r -> r.meta_qps);
    replica_qps = weighted (fun r -> r.meta_replica_qps);
    names = List.fold_left (fun acc (r : O.report) -> max acc r.config.names) 0 reports;
    checks = [];
  }

let openloop_configs w ~seed size =
  let window = window_ms w size in
  match w with
  | Warm_fleet -> [ with_window (warm_config ~seed) window ]
  | Cold_legacy -> [ with_window (cold_config ~seed) window ]
  | Load_suite -> List.map (fun c -> with_window c window) (suite_configs ~seed)
  | Meta_writes -> invalid_arg "Runs.openloop_configs: meta-writes"

(* At seed 42 every load-suite config must reproduce its committed
   resolve row: the benchmark drives the same harness as BENCH_hns.json. *)
let committed_rows_check reports =
  let path = "BENCH_hns.json" in
  let name = "load-suite rows match BENCH_hns.json" in
  if not (Sys.file_exists path) then [ (name, false, path ^ " not found in the working directory") ]
  else
    let doc = Obs.Json.of_string (In_channel.with_open_bin path In_channel.input_all) in
    let rows = Obs.Json.to_list (Obs.Json.get "experiments" doc) in
    let row label =
      List.find_opt
        (fun r -> Obs.Json.to_str (Obs.Json.get "name" r) = "loadharness." ^ label ^ ".resolve_ms")
        rows
    in
    let close a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs b) in
    let mismatches =
      List.filter_map
        (fun (r : O.report) ->
          let p50 = Sim.Stats.percentile r.all 50.0 and p99 = Sim.Stats.percentile r.all 99.0 in
          match row r.config.label with
          | None -> Some (r.config.label ^ ": no committed row")
          | Some j ->
              let want k = Obs.Json.to_float (Obs.Json.get k j) in
              if close p50 (want "p50_ms") && close p99 (want "p99_ms") then None
              else
                Some
                  (Printf.sprintf "%s: p50 %.4f p99 %.4f vs committed %.4f %.4f"
                     r.config.label p50 p99 (want "p50_ms") (want "p99_ms")))
        reports
    in
    [ (name, mismatches = [], String.concat "; " mismatches) ]

let run_openloop w ~seed ~each size =
  let reports =
    List.map
      (fun c ->
        let r = O.run c in
        each c.label;
        r)
      (openloop_configs w ~seed size)
  in
  let o = of_reports reports in
  let checks =
    if w = Load_suite && size = Full && seed = 42 then committed_rows_check reports else []
  in
  { o with checks }

(* --- meta-writes: the partitioned, replicated, durable meta-store --- *)

(* The deployment and the traffic are Workload.Fanout's: the tree.x4
   point of its sweep (2 partitions, each a primary and a k=2 tree of 4
   replicas; 12 pinned clients; 4 contexts per partition), its read
   pacing (each client reads cold once per [read_interval_ms]) and its
   read-your-writes rounds (a dedicated writer stores context 1 and
   reads it straight back, one round per [mw_round_ms]). Departures:
   the primaries are durable; both phases run at once, as open-loop
   Poisson arrivals at those rates; and each round writes to a
   partition drawn by the seed, so both primaries' stores take writes. *)
let mw =
  snd
    (List.find
       (fun (_, (c : Workload.Fanout.config)) -> c.label = "tree.x4")
       (Workload.Fanout.sweep ()))

(* Fanout's pause between read-your-writes rounds. *)
let mw_round_ms = 300.0
let mw_read_rate_per_s = float_of_int mw.clients *. 1000.0 /. mw.read_interval_ms
let mw_round_rate_per_s = 1000.0 /. mw_round_ms
let mw_written_context = 1

let plabel i = Printf.sprintf "p%d" i
let mw_key ~partition j = Hns.Meta_schema.context_key (Printf.sprintf "c%d.%s" j (plabel partition))
let rdata_bytes v = Wire.Xdr.to_string Hns.Meta_schema.string_ty (Wire.Value.str v)

(* A round is a write and the writer's cold read of it: two operations. *)
type op =
  | Read of { client : int; partition : int; context : int }
  | Round of { partition : int; value : string }

(* Replica tree node [j] hangs under node [j / k]; node 0 is the
   primary (as in {!Workload.Fanout}). *)
let rec tree_depth node = if node = 0 then 0 else 1 + tree_depth ((node - 1) / mw.chain_k)

(* First instant a replica held [serial] or later, from its serial
   transitions in time order. *)
let reached (transitions : (float * int32) array) serial =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Int32.compare (snd transitions.(mid)) serial >= 0 then go lo mid else go (mid + 1) hi
  in
  let i = go 0 (Array.length transitions) in
  if i < Array.length transitions then Some (fst transitions.(i)) else None

let plan_ops ~seed ~window_ms =
  let root = Sim.Rng.create ~seed:(Int64.of_int seed) in
  let rng_reads = Sim.Rng.split root in
  let rng_rounds = Sim.Rng.split root in
  let rng_mix = Sim.Rng.split root in
  let poisson rate_per_s rng tag =
    List.map (fun t -> (t, tag)) (O.schedule (O.Poisson { rate_per_s }) ~rng ~duration_ms:window_ms)
  in
  let arrivals =
    List.merge
      (fun (a, _) (b, _) -> Float.compare a b)
      (poisson mw_read_rate_per_s rng_reads `Read)
      (poisson mw_round_rate_per_s rng_rounds `Round)
  in
  let ops =
    List.mapi
      (fun i (_, tag) ->
        let partition = Sim.Rng.int rng_mix mw.partitions in
        match tag with
        | `Read ->
            let client = Sim.Rng.int rng_mix mw.clients in
            Read { client; partition; context = Sim.Rng.int rng_mix mw.contexts_per_partition }
        | `Round -> Round { partition; value = Printf.sprintf "v%d" i })
      arrivals
  in
  (List.map fst arrivals, Array.of_list ops)

let run_meta_writes ~seed ~each size =
  let window_ms = window_ms Meta_writes size in
  let times, ops = plan_ops ~seed ~window_ms in
  let at = Array.of_list times in
  let engine = Sim.Engine.create () in
  let topo = Sim.Topology.create () in
  let net = Transport.Netstack.create engine topo in
  let stack n = Transport.Netstack.attach net (Sim.Topology.add_host topo n) in
  let port = Transport.Address.Well_known.hns_meta in
  let root = Dns.Server.create (stack "mw-root") ~port ~allow_update:true () in
  Dns.Server.add_zone root (Dns.Zone.simple ~origin:Hns.Meta_schema.zone_origin []);
  let parts =
    Array.init mw.partitions (fun p ->
        let cut = Hns.Meta_schema.partition_cut (plabel p) in
        let records =
          List.init mw.contexts_per_partition (fun j ->
              Dns.Rr.make ~ttl:3600l (mw_key ~partition:p j)
                (Dns.Rr.Unspec (rdata_bytes "UW-BIND")))
        in
        let zone = Dns.Zone.simple ~origin:cut records in
        let primary = Dns.Server.create (stack ("mw-" ^ plabel p)) ~port ~allow_update:true () in
        Dns.Server.add_zone primary zone;
        let replicas =
          Array.init mw.replicas (fun j ->
              Dns.Server.create (stack (Printf.sprintf "mw-%sr%d" (plabel p) j)) ~port ())
        in
        (cut, zone, primary, replicas))
  in
  let client_stacks = Array.init mw.clients (fun c -> stack (Printf.sprintf "mw-c%d" c)) in
  let writer_stack = stack "mw-writer" in
  (* Serial each written value landed at, stamped by a delta hook on the
     partition primaries. *)
  let landed : (string, int32) Hashtbl.t = Hashtbl.create 4096 in
  let serial_of v = Option.value ~default:0l (Hashtbl.find_opt landed (rdata_bytes v)) in
  let result = ref None in
  Sim.Engine.spawn engine ~name:"meta-writes" (fun () ->
      Dns.Server.start root;
      let durables =
        Array.mapi
          (fun p (_, zone, primary, replicas) ->
            Dns.Server.start primary;
            Array.iter Dns.Server.start replicas;
            Dns.Zone.on_delta zone (fun d ->
                List.iter
                  (function
                    | Dns.Journal.Put { rdata = Dns.Rr.Unspec b; _ } ->
                        Hashtbl.replace landed b d.Dns.Journal.to_serial
                    | _ -> ())
                  d.Dns.Journal.changes);
            let disk = Store.Disk.create ~name:("mw-disk-" ^ plabel p) () in
            let config = { Dns.Durable.default_config with base = plabel p } in
            Dns.Durable.attach ~config disk zone)
          parts
      in
      (* Each replica's serial transitions, newest first, stamped by a
         delta hook on its zone: convergence needs no polling fiber. *)
      let transitions = Array.map (fun (_, _, _, r) -> Array.map (fun _ -> ref []) r) parts in
      let secondaries =
        Array.mapi
          (fun p (cut, _, primary, replicas) ->
            Array.mapi
              (fun j replica ->
                let parent = j / mw.chain_k in
                let upstream = if parent = 0 then primary else replicas.(parent - 1) in
                let sec =
                  Dns.Secondary.attach replica ~primary:(Dns.Server.addr upstream) ~zone:cut
                    ~refresh_ms:60_000.0 ~mode:Dns.Secondary.Ixfr
                    ~chain_depth:(tree_depth (j + 1)) ()
                in
                Dns.Server.register_notify upstream (Dns.Server.addr replica);
                let rzone =
                  List.find
                    (fun z -> Dns.Name.equal (Dns.Zone.origin z) cut)
                    (Dns.Server.zones replica)
                in
                let tr = transitions.(p).(j) in
                Dns.Zone.on_delta rzone (fun d ->
                    tr := (Sim.Engine.time (), d.Dns.Journal.to_serial) :: !tr);
                sec)
              replicas)
          parts
      in
      let admin =
        Hns.Meta_client.create (stack "mw-admin") ~meta_server:(Dns.Server.addr root)
          ~cache:(Hns.Cache.create ~mode:Hns.Cache.Demarshalled ()) ()
      in
      Array.iteri
        (fun p (_, _, primary, replicas) ->
          match
            Hns.Admin.register_partition admin ~label:(plabel p) ~primary:(Dns.Server.addr primary)
              ~replicas:(Array.to_list (Array.map Dns.Server.addr replicas)) ()
          with
          | Ok () -> ()
          | Error e -> failwith ("register_partition: " ^ Hns.Errors.to_string e))
        parts;
      let meta_client s =
        Hns.Meta_client.create s ~meta_server:(Dns.Server.addr root) ~read_your_writes:true
          ~cache:(Hns.Cache.create ~mode:Hns.Cache.Demarshalled ()) ()
      in
      let clients = Array.map meta_client client_stacks in
      let writer = meta_client writer_stack in
      (* Warm-up: one read per partition learns each cut. *)
      Array.iter
        (fun mc ->
          for p = 0 to mw.partitions - 1 do
            ignore
              (Hns.Meta_client.lookup mc ~key:(mw_key ~partition:p 0)
                 ~ty:Hns.Meta_schema.string_ty)
          done)
        (Array.append clients [| writer |]);
      let served servers = Array.fold_left (fun n s -> n + Dns.Server.queries_served s) 0 servers in
      let primaries = Array.map (fun (_, _, p, _) -> p) parts in
      let replicas = Array.concat (Array.to_list (Array.map (fun (_, _, _, r) -> r) parts)) in
      let prim0 = served primaries and rep0 = served replicas in
      let lat = Sim.Stats.create ~name:"reads" () and writes = Sim.Stats.create ~name:"writes" () in
      let acked = ref [] and failed = ref 0 and slo_ok = ref 0 and stale = ref 0 in
      (* One operation done: [since] is its scheduled arrival, or for a
         round's read-back, the write's ack. *)
      let record stats limit ~since ok =
        let l = Sim.Engine.time () -. since in
        Sim.Stats.add stats l;
        if ok && l <= limit then incr slo_ok;
        if not ok then incr failed;
        ok
      in
      let read mc key =
        Hns.Cache.flush (Hns.Meta_client.cache mc);
        match
          Obs.Span.with_span "meta_read" (fun () ->
              Hns.Meta_client.lookup mc ~key ~ty:Hns.Meta_schema.string_ty)
        with
        | Ok (Some got) -> Some (Wire.Value.get_str got)
        | Ok None | Error _ -> None
      in
      let t0 = Sim.Engine.time () in
      let submit i =
        let since = t0 +. at.(i) in
        match ops.(i) with
        | Read { client; partition; context } ->
            record lat read_limit_ms ~since
              (read clients.(client) (mw_key ~partition context) <> None)
        | Round { partition; value } ->
            let key = mw_key ~partition mw_written_context in
            let stored =
              Obs.Span.with_span "meta_write" (fun () ->
                  Hns.Meta_client.store writer ~key ~ty:Hns.Meta_schema.string_ty
                    (Wire.Value.str value))
            in
            let written = record writes write_limit_ms ~since (Result.is_ok stored) in
            (* A failed write fails its read-back too. *)
            let since = Sim.Engine.time () in
            let read_back =
              if not written then false
              else begin
                let serial = serial_of value in
                acked := (since, partition, serial) :: !acked;
                match read writer key with
                | Some got ->
                    if got <> value && Int32.compare (serial_of got) serial < 0 then incr stale;
                    true
                | None -> false
              end
            in
            record lat read_limit_ms ~since read_back
      in
      ignore (O.drive ~times ~submit ());
      let window_s = Float.max 1.0 (Sim.Engine.time () -. t0) /. 1000.0 in
      let prim_n = served primaries - prim0 and rep_n = served replicas - rep0 in
      (* Teardown gate: every replica reaches its primary's final serial. *)
      let behind () =
        Array.exists
          (fun (p, (_, zone, _, _)) ->
            Array.exists
              (fun s -> Int32.compare (Dns.Secondary.serial s) (Dns.Zone.serial zone) < 0)
              secondaries.(p))
          (Array.mapi (fun p part -> (p, part)) parts)
      in
      let deadline = Sim.Engine.time () +. 60_000.0 in
      while behind () && Sim.Engine.time () < deadline do
        Sim.Engine.sleep 5.0
      done;
      let caught_up = not (behind ()) in
      Array.iter (Array.iter Dns.Secondary.detach) secondaries;
      Array.iter
        (fun (_, _, primary, replicas) ->
          Array.iter Dns.Server.stop replicas;
          Dns.Server.stop primary)
        parts;
      Dns.Server.stop root;
      let transitions =
        Array.map (Array.map (fun tr -> Array.of_list (List.rev !tr))) transitions
      in
      let converge = Sim.Stats.create ~name:"converge" () in
      List.iter
        (fun (t_ack, p, serial) ->
          let last_replica =
            Array.fold_left
              (fun acc tr ->
                match (acc, reached tr serial) with
                | Some a, Some t -> Some (Float.max a t)
                | _ -> None)
              (Some t_ack) transitions.(p)
          in
          Option.iter (fun t -> Sim.Stats.add converge (t -. t_ack)) last_replica)
        !acked;
      let n_acked = List.length !acked in
      let persisted = Array.fold_left (fun n d -> n + Dns.Durable.persisted_deltas d) 0 durables in
      result :=
        Some
          {
            attempted = Sim.Stats.count lat + Sim.Stats.count writes;
            failed = !failed;
            lat;
            slo_ok = !slo_ok;
            writes;
            converge;
            stale_reads = !stale;
            events = 0;
            window_s;
            (* This deployment has no public BIND. *)
            bind_qps = 0.0;
            meta_primary_qps = float_of_int prim_n /. float_of_int mw.partitions /. window_s;
            replica_qps = float_of_int rep_n /. float_of_int (Array.length replicas) /. window_s;
            names = mw.partitions * mw.contexts_per_partition;
            checks =
              [
                ("replicas reach the final serial", caught_up, "");
                ("every acked write is persisted", persisted >= n_acked,
                  Printf.sprintf "%d persisted deltas, %d acked writes" persisted n_acked);
                ("every acked write converged", Sim.Stats.count converge = n_acked,
                  Printf.sprintf "%d of %d" (Sim.Stats.count converge) n_acked);
              ];
          });
  Sim.Engine.run engine;
  each "meta-writes";
  { (Option.get !result) with events = Sim.Engine.events_executed engine }

(* [each label] runs after every harness call (one per load-suite
   config). *)
let run ?(each = ignore) w ~seed size =
  match w with
  | Meta_writes -> run_meta_writes ~seed ~each size
  | Warm_fleet | Cold_legacy | Load_suite -> run_openloop w ~seed ~each size

(* --- capacity ladder ------------------------------------------------- *)

(* Ascending rate steps; the capacity is the last step before the first
   one whose p99 exceeds [capacity_p99_ms] or that fails any resolve. *)
let capacity_p99_ms = 1000.0

let ladder_steps w size =
  let steps =
    match w with
    | Warm_fleet -> List.init 9 (fun i -> 16.0 +. (2.0 *. float_of_int i))
    | Cold_legacy -> List.init 8 (fun i -> 3.0 +. float_of_int i)
    | Meta_writes | Load_suite -> []
  in
  match size with Full -> steps | Setup | Smoke | Traced -> List.filteri (fun i _ -> i = 0) steps

(* One step of the ladder: the workload's shape at a fixed Poisson
   rate, over a 300 s window. *)
let step w ~seed size rate =
  let window = match size with Full -> 300_000.0 | Setup | Smoke | Traced -> window_ms w Smoke in
  let base = List.hd (openloop_configs w ~seed Full) in
  O.run (with_window { base with arrival = O.Poisson { rate_per_s = rate } } window)

let step_passes ~p99_ms ~failed_frac = failed_frac = 0.0 && p99_ms <= capacity_p99_ms
