(* Open-loop load harness. See openloop.mli for the model. *)

module S = Scenario
module C = Calib

(* --- arrival processes ------------------------------------------- *)

type arrival =
  | Poisson of { rate_per_s : float }
  | Diurnal of {
      base_per_s : float;
      peak_per_s : float;
      period_ms : float;
      phase_ms : float;
    }

let peak_rate = function
  | Poisson { rate_per_s } -> rate_per_s
  | Diurnal { peak_per_s; _ } -> peak_per_s

let validate_arrival = function
  | Poisson { rate_per_s } ->
      if rate_per_s <= 0.0 then invalid_arg "Openloop: rate_per_s <= 0"
  | Diurnal { base_per_s; peak_per_s; period_ms; _ } ->
      if base_per_s < 0.0 then invalid_arg "Openloop: base_per_s < 0";
      if peak_per_s < base_per_s then
        invalid_arg "Openloop: peak_per_s < base_per_s";
      if peak_per_s <= 0.0 then invalid_arg "Openloop: peak_per_s <= 0";
      if period_ms <= 0.0 then invalid_arg "Openloop: period_ms <= 0"

let rate_at arrival t_ms =
  match arrival with
  | Poisson { rate_per_s } -> rate_per_s
  | Diurnal { base_per_s; peak_per_s; period_ms; phase_ms } ->
      let phase = 2.0 *. Float.pi *. ((t_ms +. phase_ms) /. period_ms) in
      base_per_s +. ((peak_per_s -. base_per_s) *. 0.5 *. (1.0 -. Float.cos phase))

(* Lewis thinning against the peak rate: candidate arrivals are a
   homogeneous Poisson process at [peak]; each is kept with
   probability rate(t)/peak. A plain Poisson process accepts every
   candidate (no thinning draw), so its schedule is exactly the
   exponential-interarrival stream the mean test checks. *)
let schedule arrival ~rng ~duration_ms =
  validate_arrival arrival;
  if duration_ms < 0.0 then invalid_arg "Openloop.schedule: duration < 0";
  let peak = peak_rate arrival in
  let mean_ms = 1000.0 /. peak in
  let rec go acc t =
    let t = t +. Sim.Rng.exponential rng ~mean:mean_ms in
    if t >= duration_ms then List.rev acc
    else
      let keep =
        match arrival with
        | Poisson _ -> true
        | Diurnal _ -> Sim.Rng.float rng 1.0 < rate_at arrival t /. peak
      in
      go (if keep then t :: acc else acc) t
  in
  go [] 0.0

let schedule_digest samples =
  let h =
    List.fold_left
      (fun acc t ->
        Int64.mul (Int64.logxor acc (Int64.bits_of_float t)) 0x100000001b3L)
      0xcbf29ce484222325L samples
  in
  Printf.sprintf "%016Lx" h

(* --- generic drivers --------------------------------------------- *)

type drive_result = { latency : Sim.Stats.t; errors : int }

let drive ~times ~submit () =
  let latency = Sim.Stats.create ~name:"openloop" () in
  let errors = ref 0 in
  let total = List.length times in
  if total = 0 then { latency; errors = 0 }
  else begin
    let completed = ref 0 in
    let all_done = Sim.Engine.Ivar.create () in
    let t0 = Sim.Engine.time () in
    Sim.Engine.spawn_child ~name:"openloop.arrivals" (fun () ->
        List.iteri
          (fun i at ->
            let lag = t0 +. at -. Sim.Engine.time () in
            if lag > 0.0 then Sim.Engine.sleep lag;
            let scheduled = t0 +. at in
            Sim.Engine.spawn_child ~name:"openloop.arrival" (fun () ->
                if not (submit i) then incr errors;
                Sim.Stats.add latency (Sim.Engine.time () -. scheduled);
                incr completed;
                if !completed = total then
                  ignore (Sim.Engine.Ivar.fill_if_empty all_done ())))
          times);
    Sim.Engine.Ivar.read all_done;
    { latency; errors = !errors }
  end

let drive_closed ~n ~submit () =
  let latency = Sim.Stats.create ~name:"closedloop" () in
  let errors = ref 0 in
  for i = 0 to n - 1 do
    let t = Sim.Engine.time () in
    if not (submit i) then incr errors;
    Sim.Stats.add latency (Sim.Engine.time () -. t)
  done;
  { latency; errors = !errors }

(* --- confederation harness --------------------------------------- *)

type ranking = Decayed | Sliding

let decayed_half_life_ms = 300_000.0
let sliding_window_ms = 10_000.0

type flash = { at_ms : float; len_ms : float; fraction : float; rank : int }
type storm = { at_ms : float; every_ms : float; hold_ms : float; count : int }

type config = {
  label : string;
  seed : int;
  clients : int;
  agent_hosts : int;
  legacy_hosts : int;
  legacy_fraction : float;
  ch_fraction : float;
  names : int;
  zipf_s : float;
  steady_k : int;
  arrival : arrival;
  duration_ms : float;
  churn_every_ms : float;
  ranking : ranking;
  hand_codec : bool;
  meta_replicas : int;
  flash : flash option;
  storm : storm option;
  slo_target_ms : float;
  slo_objective : float;
}

type report = {
  config : config;
  arrivals : int;
  errors : int;
  all : Sim.Stats.t;
  steady : Sim.Stats.t;
  flashed : Sim.Stats.t;
  steady_compliance : float;
  bind_qps : float;
  meta_qps : float;
  meta_replica_qps : float;
  wire_mb : float;
  sim_events : int;
  prefetch_seeded : int;
  prefetch_hits : int;
  digest : string;
}

let validate cfg =
  validate_arrival cfg.arrival;
  if cfg.clients <= 0 then invalid_arg "Openloop: clients <= 0";
  if cfg.agent_hosts <= 0 then invalid_arg "Openloop: agent_hosts <= 0";
  if cfg.legacy_hosts <= 0 then invalid_arg "Openloop: legacy_hosts <= 0";
  if cfg.legacy_fraction < 0.0 || cfg.legacy_fraction > 1.0 then
    invalid_arg "Openloop: legacy_fraction outside [0,1]";
  if cfg.ch_fraction < 0.0 || cfg.ch_fraction +. cfg.legacy_fraction > 1.0 then
    invalid_arg "Openloop: ch_fraction malformed";
  if cfg.names < 2 then invalid_arg "Openloop: names < 2";
  if cfg.steady_k <= 0 || cfg.steady_k >= cfg.names then
    invalid_arg "Openloop: steady_k outside (0, names)";
  if cfg.duration_ms <= 0.0 then invalid_arg "Openloop: duration <= 0";
  if cfg.churn_every_ms <= 0.0 then invalid_arg "Openloop: churn <= 0";
  if cfg.meta_replicas < 0 then invalid_arg "Openloop: meta_replicas < 0";
  (match cfg.flash with
  | None -> ()
  | Some f ->
      if f.fraction < 0.0 || f.fraction > 1.0 then
        invalid_arg "Openloop: flash fraction outside [0,1]";
      if f.rank < cfg.steady_k || f.rank >= cfg.names then
        invalid_arg "Openloop: flash rank must be outside the steady set");
  match cfg.storm with
  | None -> ()
  | Some s ->
      if s.count < 0 then invalid_arg "Openloop: storm count < 0";
      if s.count > 0 && (s.every_ms <= 0.0 || s.hold_ms <= 0.0) then
        invalid_arg "Openloop: storm period/hold <= 0"

(* One precomputed arrival: everything random is drawn up front so the
   measured run's choices cannot depend on fiber interleaving. *)
type path = Agent_path of int | Legacy_path of int

type entry = {
  at : float;
  epath : path;
  hname : Hns.Hns_name.t;
  is_steady : bool;
  is_flash : bool;
}

let run cfg =
  validate cfg;
  let root = Sim.Rng.create ~seed:(Int64.of_int cfg.seed) in
  let rng_sched = Sim.Rng.split root in
  let rng_perm = Sim.Rng.split root in
  let rng_mix = Sim.Rng.split root in
  let hot_ranking =
    match cfg.ranking with
    | Decayed -> Dns.Hotrank.Decayed { half_life_ms = decayed_half_life_ms }
    | Sliding -> Dns.Hotrank.Sliding_count { window_ms = sliding_window_ms }
  in
  (* Linked host-address NSM caches expire on this period, so every
     fleet host re-asks the public BIND for a name it keeps resolving
     — the sighting stream the hot tracker ranks. *)
  let nsm_cache_ttl_ms = 2_000.0 in
  let scn =
    S.build ~cache_mode:Hns.Cache.Demarshalled ~extra_hosts:cfg.names
      ~bundle:true ~hand_codec:cfg.hand_codec ~prefetch:true ~hot_ranking
      ~prefetch_k:(cfg.steady_k + 1) ~nsm_cache_ttl_ms
      ~meta_replicas:cfg.meta_replicas ()
  in
  (* Zipf rank -> zone name, through a seeded permutation so the
     popular heads are not alphabetically first (Name.compare
     tie-breaks must not be able to rescue a bad ranking). *)
  let host_names = Array.of_list (Namegen.hosts ~count:cfg.names ~zone:scn.zone) in
  let perm = Array.init cfg.names (fun i -> i) in
  Sim.Rng.shuffle rng_perm perm;
  let name_of_rank r =
    Hns.Hns_name.make ~context:scn.bind_context ~name:host_names.(perm.(r))
  in
  let ch_name = Hns.Hns_name.make ~context:scn.ch_context ~name:"dandelion" in
  let zipf = Zipf.create ~n:cfg.names ~s:cfg.zipf_s in
  (* The fleets. Clients are a population of ids mapped onto hosts:
     each arrival belongs to one of [clients] simulated clients, whose
     host (and therefore shared agent or legacy resolver) is fixed by
     its id. *)
  let attach name =
    Transport.Netstack.attach scn.net (Sim.Topology.add_host scn.topo name)
  in
  let agents =
    Array.init cfg.agent_hosts (fun i ->
        let stack = attach (Printf.sprintf "lharn-a%02d" i) in
        let hns =
          S.new_hns ~cache_mode:Hns.Cache.Demarshalled ~nsm_cache_ttl_ms scn
            ~on:stack
        in
        let agent =
          Hns.Agent.create hns ~service_overhead_ms:C.agent_service_overhead_ms
            ()
        in
        (stack, agent, Hns.Agent.binding agent))
  in
  let legacy =
    Array.init cfg.legacy_hosts (fun i ->
        let stack = attach (Printf.sprintf "lharn-l%02d" i) in
        (* The legacy pool keeps the generated stubs regardless of
           [hand_codec]: it models the unconverted 1987 clients, and
           mixed codecs on one wire is exactly the heterogeneity the
           byte-identical hand encoding has to survive. *)
        ( stack,
          S.new_hns ~enable_bundle:false ~hand_codec:false ~nsm_cache_ttl_ms scn
            ~on:stack ))
  in
  (* The schedule, then the full arrival plan. *)
  let times = schedule cfg.arrival ~rng:rng_sched ~duration_ms:cfg.duration_ms in
  let digest = schedule_digest times in
  let flash_active at =
    match cfg.flash with
    | None -> false
    | Some f ->
        at >= f.at_ms && at < f.at_ms +. f.len_ms
        && Sim.Rng.float rng_mix 1.0 < f.fraction
  in
  let plan =
    Array.of_list
      (List.map
         (fun at ->
           let client = Sim.Rng.int rng_mix cfg.clients in
           let p = Sim.Rng.float rng_mix 1.0 in
           let epath =
             if p < cfg.legacy_fraction then
               Legacy_path (client mod cfg.legacy_hosts)
             else Agent_path (client mod cfg.agent_hosts)
           in
           let is_ch = Sim.Rng.float rng_mix 1.0 < cfg.ch_fraction in
           let rank = Zipf.sample zipf rng_mix in
           if flash_active at then
             let rank = (Option.get cfg.flash).rank in
             { at; epath; hname = name_of_rank rank; is_steady = false;
               is_flash = true }
           else if is_ch then
             { at; epath; hname = ch_name; is_steady = false; is_flash = false }
           else
             let is_flash =
               match cfg.flash with Some f -> rank = f.rank | None -> false
             in
             let is_steady =
               (not is_flash) && rank < cfg.steady_k
               && match epath with Agent_path _ -> true | Legacy_path _ -> false
             in
             { at; epath; hname = name_of_rank rank; is_steady; is_flash })
         times)
  in
  let steady = Sim.Stats.create ~name:"steady" () in
  let flashed = Sim.Stats.create ~name:"flash" () in
  let slo =
    let slug =
      String.map (fun c -> if c = '.' then '-' else c) cfg.label
    in
    Obs.Slo.get_or_create ~target_ms:cfg.slo_target_ms
      ~objective:cfg.slo_objective ("load-" ^ slug)
  in
  let resolve_legacy hns hname =
    match
      Hns.Client.resolve hns ~query_class:Hns.Query_class.host_address
        ~payload_ty:Hns.Nsm_intf.host_address_payload_ty hname
    with
    | Ok (Some _) -> true
    | Ok None | Error _ -> false
  in
  let before_bind = ref 0 and before_meta = ref 0 and before_bytes = ref 0 in
  let bind_q = ref 0 and meta_q = ref 0 and wire_bytes = ref 0 in
  let before_replica = ref 0 and replica_q = ref 0 in
  let replica_queries () =
    List.fold_left
      (fun acc srv -> acc + Dns.Server.queries_served srv)
      0 scn.S.meta_replica_servers
  in
  let result =
    S.in_sim scn (fun () ->
        (* Replica fleet up first: the warmup's bundle fetches and
           every routed read below go through it. Detached again before
           this window closes so the engine can drain. *)
        let meta_secs = S.attach_meta_replicas scn in
        Array.iter (fun (_, a, _) -> Hns.Agent.start a) agents;
        (* Deterministic warmup: every fleet host touches the steady
           set (and the Clearinghouse name) once, seeding mapping
           caches, NSM caches, the hot tracker, and — through each
           agent's bundle fetch — the prefetch hints. *)
        Array.iter
          (fun (stack, _, binding) ->
            for r = 0 to cfg.steady_k - 1 do
              ignore
                (Hns.Agent.remote_resolve_addr stack ~agent:binding
                   (name_of_rank r))
            done;
            ignore (Hns.Agent.remote_resolve_addr stack ~agent:binding ch_name))
          agents;
        Array.iter
          (fun (_, hns) ->
            for r = 0 to cfg.steady_k - 1 do
              ignore (resolve_legacy hns (name_of_rank r))
            done;
            ignore (resolve_legacy hns ch_name))
          legacy;
        Sim.Engine.sleep 2_000.0;
        let t0 = Sim.Engine.time () in
        let t_end = t0 +. cfg.duration_ms in
        (* Agent cache churn, staggered across the fleet: flush the
           shared cache, then refetch both contexts' bundles so the
           freshly-ranked prefetch hints land before clients ask. *)
        Array.iteri
          (fun i (_, agent, _) ->
            let hns = Hns.Agent.hns agent in
            let first =
              t0 +. (cfg.churn_every_ms *. (float_of_int (i + 1)
                     /. float_of_int cfg.agent_hosts))
            in
            Sim.Engine.spawn_child ~name:"openloop.churn" (fun () ->
                let rec loop next =
                  if next < t_end then begin
                    let lag = next -. Sim.Engine.time () in
                    if lag > 0.0 then Sim.Engine.sleep lag;
                    Hns.Client.flush_cache hns;
                    ignore
                      (Hns.Client.find_nsm hns ~context:scn.bind_context
                         ~query_class:Hns.Query_class.host_address);
                    ignore
                      (Hns.Client.find_nsm hns ~context:scn.ch_context
                         ~query_class:Hns.Query_class.host_address);
                    loop (next +. cfg.churn_every_ms)
                  end
                in
                loop first))
          agents;
        (match cfg.storm with
        | None | Some { count = 0; _ } -> ()
        | Some s ->
            let fleet =
              Array.to_list
                (Array.append
                   (Array.mapi (fun i _ -> Printf.sprintf "lharn-a%02d" i)
                      agents)
                   (Array.mapi (fun i _ -> Printf.sprintf "lharn-l%02d" i)
                      legacy))
            in
            let faults =
              List.init s.count (fun i ->
                  let at = t0 +. s.at_ms +. (float_of_int i *. s.every_ms) in
                  (* Cut the fleet off from the context's NSM — the one
                     remote hop every un-cached resolve depends on.
                     Hint-warmed agent caches ride the hold out; legacy
                     always-remote traffic eats the failure. *)
                  Chaos.Plan.partition ~group_a:[ "niue" ] ~group_b:fleet ~at
                    ~heal_at:(at +. s.hold_ms))
            in
            ignore (Chaos.Injector.install faults scn.net));
        before_bind := Dns.Server.queries_served scn.public_bind;
        before_meta := Dns.Server.queries_served scn.meta_bind;
        before_replica := replica_queries ();
        let bytes_sent () =
          Obs.Metrics.read (Transport.Netstack.metrics scn.net)
            "transport.netstack.bytes_sent"
        in
        before_bytes := bytes_sent ();
        let submit i =
          let e = plan.(i) in
          let scheduled = t0 +. e.at in
          let ok =
            match e.epath with
            | Agent_path h ->
                let stack, _, binding = agents.(h) in
                Result.is_ok
                  (Hns.Agent.remote_resolve_addr stack ~agent:binding e.hname)
            | Legacy_path h -> resolve_legacy (snd legacy.(h)) e.hname
          in
          let lat = Sim.Engine.time () -. scheduled in
          if e.is_steady then Obs.Slo.observe slo ~ok lat;
          if ok then begin
            if e.is_steady then Sim.Stats.add steady lat;
            if e.is_flash then Sim.Stats.add flashed lat
          end;
          ok
        in
        let result = drive ~times ~submit () in
        bind_q := Dns.Server.queries_served scn.public_bind - !before_bind;
        meta_q := Dns.Server.queries_served scn.meta_bind - !before_meta;
        replica_q := replica_queries () - !before_replica;
        wire_bytes := bytes_sent () - !before_bytes;
        S.detach_meta_replicas scn meta_secs;
        (* The agents are left running: straggler duplicates from
           timed-out callers may still be in flight, and a stopped
           server's socket would turn their replies into crashes. The
           engine quiesces fine around a blocked recv. *)
        result)
  in
  let duration_s = cfg.duration_ms /. 1000.0 in
  let compliance =
    match Sim.Stats.samples steady with
    | [] -> 1.0
    | samples ->
        let ok =
          List.length (List.filter (fun l -> l <= cfg.slo_target_ms) samples)
        in
        float_of_int ok /. float_of_int (List.length samples)
  in
  let sum_agents name =
    Array.fold_left
      (fun acc (_, a, _) ->
        acc
        + Obs.Metrics.read
            (Hns.Meta_client.metrics (Hns.Client.meta (Hns.Agent.hns a)))
            name)
      0 agents
  in
  {
    config = cfg;
    arrivals = Array.length plan;
    errors = result.errors;
    all = result.latency;
    steady;
    flashed;
    steady_compliance = compliance;
    bind_qps = float_of_int !bind_q /. duration_s;
    meta_qps = float_of_int !meta_q /. duration_s;
    meta_replica_qps =
      float_of_int !replica_q
      /. float_of_int (max 1 cfg.meta_replicas)
      /. duration_s;
    wire_mb = float_of_int !wire_bytes /. (1024.0 *. 1024.0);
    sim_events = Sim.Engine.events_executed scn.engine;
    prefetch_seeded = sum_agents "hns.meta.bundle_prefetched";
    prefetch_hits = sum_agents "hns.meta.prefetch_hits";
    digest;
  }

(* --- presets ------------------------------------------------------ *)

let smoke ?(ranking = Decayed) () =
  {
    label = (match ranking with Decayed -> "smoke" | Sliding -> "smoke_naive");
    seed = 11;
    clients = 20_000;
    agent_hosts = 4;
    legacy_hosts = 4;
    legacy_fraction = 0.2;
    ch_fraction = 0.05;
    names = 96;
    zipf_s = 1.25;
    steady_k = 4;
    arrival = Poisson { rate_per_s = 14.0 };
    duration_ms = 90_000.0;
    (* Fleet-wide flush spacing is churn/agents = 11.25 s — just past
       the naive ranking's 10 s window, so hint keep-alive renewals
       have aged out of a sliding count (but not out of the decayed
       mass) by the time the next bundle is ranked. *)
    churn_every_ms = 45_000.0;
    ranking;
    hand_codec = true;
    meta_replicas = 2;
    flash = Some { at_ms = 36_000.0; len_ms = 18_000.0; fraction = 0.9; rank = 17 };
    storm = None;
    slo_target_ms = 150.0;
    slo_objective = 0.98;
  }

let bench_base ~label ~ranking ~arrival ~flash ~storm =
  {
    label;
    seed = 42;
    clients = 1_000_000;
    agent_hosts = 8;
    legacy_hosts = 6;
    legacy_fraction = 0.15;
    ch_fraction = 0.05;
    names = 128;
    zipf_s = 1.35;
    steady_k = 4;
    arrival;
    duration_ms = 360_000.0;
    churn_every_ms = 90_000.0;
    ranking;
    hand_codec = true;
    meta_replicas = 3;
    flash;
    storm;
    slo_target_ms = 150.0;
    slo_objective = 0.98;
  }

let bench_flash = Some { at_ms = 180_000.0; len_ms = 90_000.0; fraction = 0.95; rank = 48 }

let bench_configs () =
  [
    bench_base ~label:"poisson" ~ranking:Decayed
      ~arrival:(Poisson { rate_per_s = 12.0 })
      ~flash:None ~storm:None;
    bench_base ~label:"diurnal" ~ranking:Decayed
      ~arrival:
        (Diurnal
           {
             base_per_s = 4.0;
             peak_per_s = 16.0;
             period_ms = 180_000.0;
             phase_ms = 0.0;
           })
      ~flash:None ~storm:None;
    bench_base ~label:"flash.decayed" ~ranking:Decayed
      ~arrival:(Poisson { rate_per_s = 12.0 })
      ~flash:bench_flash ~storm:None;
    bench_base ~label:"flash.sliding" ~ranking:Sliding
      ~arrival:(Poisson { rate_per_s = 12.0 })
      ~flash:bench_flash ~storm:None;
    bench_base ~label:"storm" ~ranking:Decayed
      ~arrival:(Poisson { rate_per_s = 12.0 })
      ~flash:None
      (* Offset from the 90 s churn grid so holds don't land exactly on
         an agent's flush-and-refetch instant. *)
      ~storm:(Some { at_ms = 100_000.0; every_ms = 90_000.0; hold_ms = 8_000.0; count = 3 });
  ]

(* --- reporting ---------------------------------------------------- *)

let pct stats p =
  if Sim.Stats.count stats = 0 then 0.0 else Sim.Stats.percentile stats p

let pp_stats_line ppf (what, stats) =
  Format.fprintf ppf "    %-10s n=%-6d p50 %7.1f  p99 %8.1f  p999 %8.1f ms@."
    what (Sim.Stats.count stats) (pct stats 50.0) (pct stats 99.0)
    (pct stats 99.9)

let pp_report ppf r =
  let c = r.config in
  let ranking = match c.ranking with Decayed -> "decayed" | Sliding -> "sliding" in
  Format.fprintf ppf
    "  %s: %d clients over %d agent + %d legacy hosts, %s ranking@.  \
     %d arrivals (%d errors), schedule %s@."
    c.label c.clients c.agent_hosts c.legacy_hosts ranking r.arrivals r.errors
    r.digest;
  pp_stats_line ppf ("all", r.all);
  pp_stats_line ppf ("steady", r.steady);
  if Sim.Stats.count r.flashed > 0 then pp_stats_line ppf ("flash", r.flashed);
  Format.fprintf ppf
    "    steady SLO(%g ms): %.4f compliant (objective %g)@.    upstream: \
     BIND %.1f q/s, meta primary %.1f q/s, %d replicas x %.1f q/s, wire \
     %.2f MB, %d sim events@.    prefetch: %d hints seeded, %d hits@."
    c.slo_target_ms r.steady_compliance c.slo_objective r.bind_qps r.meta_qps
    c.meta_replicas r.meta_replica_qps r.wire_mb r.sim_events r.prefetch_seeded
    r.prefetch_hits

let one_sample name v =
  let s = Sim.Stats.create ~name () in
  Sim.Stats.add s v;
  s

let report_rows r =
  let base = Printf.sprintf "loadharness.%s" r.config.label in
  let duration_s = r.config.duration_ms /. 1000.0 in
  [ (base ^ ".resolve_ms", r.all); (base ^ ".steady_ms", r.steady) ]
  @ (if Sim.Stats.count r.flashed > 0 then [ (base ^ ".flash_ms", r.flashed) ]
     else [])
  @ [
      (base ^ ".bind_qps", one_sample (base ^ ".bind_qps") r.bind_qps);
      (base ^ ".meta_qps", one_sample (base ^ ".meta_qps") r.meta_qps);
      ( base ^ ".meta_replica_qps",
        one_sample (base ^ ".meta_replica_qps") r.meta_replica_qps );
      ( base ^ ".wire_kb_per_s",
        one_sample
          (base ^ ".wire_kb_per_s")
          (r.wire_mb *. 1024.0 /. duration_s) );
    ]
