(* The open-loop load harness: schedule determinism, open- vs
   closed-loop queueing visibility, arrival-process statistics, the
   Hotrank scoring laws behind the flash-crowd A/B, the ranking held to
   its reference model and to an allocation bound, a sim-event budget
   guard on the harness itself, and its live heap during and after a
   run. *)

open Helpers
module O = Workload.Openloop

let rng seed = Sim.Rng.create ~seed:(Int64.of_int seed)

(* --- arrival schedules ------------------------------------------- *)

let schedule_deterministic () =
  let arr = O.Poisson { rate_per_s = 50.0 } in
  let a = O.schedule arr ~rng:(rng 5) ~duration_ms:30_000.0 in
  let b = O.schedule arr ~rng:(rng 5) ~duration_ms:30_000.0 in
  check_bool "same seed, same schedule" true (a = b);
  check_string "same seed, same digest" (O.schedule_digest a)
    (O.schedule_digest b);
  let c = O.schedule arr ~rng:(rng 6) ~duration_ms:30_000.0 in
  check_bool "different seed, different schedule" false (a = c);
  check_bool "different seed, different digest" false
    (O.schedule_digest a = O.schedule_digest c);
  check_bool "offsets strictly increasing" true
    (let rec mono = function
       | x :: (y :: _ as rest) -> x < y && mono rest
       | _ -> true
     in
     mono a)

let poisson_mean () =
  (* Interarrival mean approximates 1/lambda for every seed. *)
  let rate = 50.0 in
  List.iter
    (fun seed ->
      let times =
        O.schedule
          (O.Poisson { rate_per_s = rate })
          ~rng:(rng seed) ~duration_ms:400_000.0
      in
      let n = List.length times in
      check_bool "enough arrivals" true (n > 1000);
      (* n arrivals before the horizon: mean interarrival is the last
         offset over the count. *)
      let last = List.nth times (n - 1) in
      let mean = last /. float_of_int n in
      let expected = 1000.0 /. rate in
      if Float.abs (mean -. expected) > 0.08 *. expected then
        Alcotest.failf "seed %d: mean interarrival %.2f ms, expected ~%.2f"
          seed mean expected)
    [ 1; 2; 3; 4; 5 ]

let diurnal_phase () =
  (* The sinusoid modulates the rate on virtual time alone: phase 0
     starts at the trough, so the middle of the period is dense and
     the edges sparse; advancing the phase by half a period flips
     that. No engine anywhere near this. *)
  let period = 100_000.0 in
  let arr phase_ms =
    O.Diurnal { base_per_s = 2.0; peak_per_s = 40.0; period_ms = period; phase_ms }
  in
  check_float_near "phase 0 starts at base" 2.0 (O.rate_at (arr 0.0) 0.0);
  check_float_near "mid-period is the peak" 40.0
    (O.rate_at (arr 0.0) (period /. 2.0));
  check_float_near "half-period phase starts at the peak" 40.0
    (O.rate_at (arr (period /. 2.0)) 0.0);
  let count lo hi times =
    List.length (List.filter (fun t -> t >= lo && t < hi) times)
  in
  let quarter = period /. 4.0 in
  List.iter
    (fun seed ->
      let times = O.schedule (arr 0.0) ~rng:(rng seed) ~duration_ms:period in
      let trough = count 0.0 quarter times
      and peak = count (period /. 2.0 -. quarter /. 2.0)
          (period /. 2.0 +. quarter /. 2.0) times in
      check_bool "peak quarter at least 3x the trough quarter" true
        (peak > 3 * max 1 trough))
    [ 11; 12; 13 ]

(* --- open vs closed loop ------------------------------------------ *)

let open_vs_closed () =
  (* A sequential server at 20 ms/request, offered 100 req/s — twice
     its capacity. The closed loop politely waits and never sees a
     queue; the open loop measures from the scheduled arrival instant
     and watches the backlog grow. Coordinated omission, on stage. *)
  let w = make_world ~hosts:2 () in
  let port = 4000 in
  let dst = Transport.Address.make (Transport.Netstack.ip w.stacks.(0)) port in
  let n = 50 in
  let times = List.init n (fun i -> float_of_int (i + 1) *. 10.0) in
  let open_r, closed_r =
    in_sim w (fun () ->
        let stop =
          Rpc.Rawrpc.serve_udp (Transport.Udp.bind w.stacks.(0) ~port) ~name:"slowpoke"
            ~service_overhead_ms:20.0 ~concurrent:false
            (fun ~src:_ payload -> Some payload)
        in
        let submit _ =
          match
            Rpc.Rawrpc.call w.stacks.(1) ~dst ~timeout:30_000.0 ~attempts:1 "q"
          with
          | Ok _ -> true
          | Error _ -> false
        in
        let open_r = O.drive ~times ~submit () in
        let closed_r = O.drive_closed ~n ~submit () in
        stop ();
        (open_r, closed_r))
  in
  check_int "open loop: no errors" 0 open_r.O.errors;
  check_int "closed loop: no errors" 0 closed_r.O.errors;
  let open_p99 = Sim.Stats.percentile open_r.O.latency 99.0 in
  let closed_p99 = Sim.Stats.percentile closed_r.O.latency 99.0 in
  (* Closed loop: every sample is service + rtt, ~21 ms. *)
  check_bool "closed loop blind to queueing" true (closed_p99 < 40.0);
  (* Open loop: the 50th arrival waited out ~50 x 10 ms of backlog. *)
  check_bool "open loop sees queueing delay" true (open_p99 > 200.0);
  check_bool "open loop dwarfs closed loop" true (open_p99 > 5.0 *. closed_p99)

(* --- Hotrank properties ------------------------------------------- *)

let name_of_string s = Dns.Name.of_labels [ s; "test" ]

let prop_monotone_decay =
  QCheck.Test.make ~count:200 ~name:"decayed score is monotone in idle time"
    QCheck.(
      triple (int_range 100 10_000)
        (list_of_size (Gen.int_range 1 20) (int_range 0 5_000))
        (pair (int_range 1 5_000) (int_range 1 5_000)))
    (fun (half_life, sightings, (d1, d2)) ->
      let t = Dns.Hotrank.create
          ~strategy:(Dns.Hotrank.Decayed { half_life_ms = float_of_int half_life })
          ()
      in
      let name = name_of_string "steady" in
      List.iter
        (fun at ->
          Dns.Hotrank.note t ~group:"g" ~now_ms:(float_of_int at)
            ~ttl_ms:1_000_000.0 name)
        sightings;
      let t_last = float_of_int (List.fold_left max 0 sightings) in
      let d1, d2 = (min d1 d2, max d1 d2) in
      let at d =
        Dns.Hotrank.score t ~group:"g" ~now_ms:(t_last +. float_of_int d) name
      in
      match (at d1, at d2) with
      | Some s1, Some s2 -> s1 >= s2 && s2 > 0.0
      | _ -> false)

let prop_flash_bounded =
  QCheck.Test.make ~count:200
    ~name:"a one-name flash displaces at most one steady entry"
    QCheck.(pair (int_range 1 500) (int_range 2 10))
    (fun (burst, per_steady) ->
      let t = Dns.Hotrank.create
          ~strategy:(Dns.Hotrank.Decayed { half_life_ms = 5_000.0 })
          ()
      in
      let steady = List.map (fun i -> name_of_string (Printf.sprintf "s%02d" i))
          [ 0; 1; 2; 3 ]
      in
      (* Steady sightings spread over the run's recent past... *)
      for round = 1 to per_steady do
        List.iter
          (fun n ->
            Dns.Hotrank.note t ~group:"g"
              ~now_ms:(float_of_int (round * 2_000))
              ~ttl_ms:1_000_000.0 n)
          steady
      done;
      (* ...then one name takes [burst] sightings in half a second. *)
      let flash = name_of_string "zz-flash" in
      let t_burst = float_of_int (per_steady * 2_000 + 500) in
      for i = 1 to burst do
        Dns.Hotrank.note t ~group:"g"
          ~now_ms:(t_burst +. (float_of_int i /. float_of_int burst *. 500.0))
          ~ttl_ms:1_000_000.0 flash
      done;
      let top =
        List.map fst
          (Dns.Hotrank.top t ~group:"g" ~now_ms:(t_burst +. 600.0)
             ~k:(List.length steady))
      in
      let displaced =
        List.length
          (List.filter (fun n -> not (List.mem n top)) steady)
      in
      displaced <= 1)

let prop_ttl_expiry =
  QCheck.Test.make ~count:200 ~name:"a TTL-expired entry leaves the ranking"
    QCheck.(int_range 100 10_000)
    (fun ttl ->
      let t = Dns.Hotrank.create
          ~strategy:(Dns.Hotrank.Decayed { half_life_ms = 1_000_000.0 })
          ()
      in
      let name = name_of_string "ephemeral" in
      let ttl_ms = float_of_int ttl in
      Dns.Hotrank.note t ~group:"g" ~now_ms:0.0 ~ttl_ms name;
      let alive =
        Dns.Hotrank.score t ~group:"g" ~now_ms:(0.9 *. ttl_ms) name <> None
      in
      let dead =
        Dns.Hotrank.score t ~group:"g" ~now_ms:(ttl_ms +. 1.0) name = None
      in
      let gone =
        not
          (List.mem_assoc name
             (Dns.Hotrank.top t ~group:"g" ~now_ms:(ttl_ms +. 1.0) ~k:8))
      in
      alive && dead && gone)

let tie_break_pinned () =
  (* Equal scores rank by Dns.Name.compare, pinned here so a future
     "optimisation" of the ranking's iteration order shows up as a
     diff instead of as nondeterministic prefetch hints. *)
  List.iter
    (fun strategy ->
      let t = Dns.Hotrank.create ~strategy () in
      List.iter
        (fun l ->
          Dns.Hotrank.note t ~group:"g" ~now_ms:10.0 ~ttl_ms:60_000.0
            (name_of_string l))
        [ "carol"; "alice"; "bob" ];
      let top =
        List.map
          (fun (n, _) -> Dns.Name.to_string n)
          (Dns.Hotrank.top t ~group:"g" ~now_ms:20.0 ~k:3)
      in
      check_bool "ties in name order" true
        (top = [ "alice.test."; "bob.test."; "carol.test." ]
        || top = [ "alice.test"; "bob.test"; "carol.test" ]))
    [
      Dns.Hotrank.Sliding_count { window_ms = 1_000.0 };
      Dns.Hotrank.Decayed { half_life_ms = 1_000.0 };
    ]

(* --- Hotrank against its reference model (hotrank_model.ml) ------- *)

type hot_op =
  | Note of { group : int; name : int; ttl_ms : float option }
  | Top of { group : int; k : int }
  | Top_merged of int
  | Score of { group : int; name : int }
  | Groups
  | Clear

(* A sequence runs on one table configuration; each op runs [dt] ms
   after the one before, often 0 ms, so scores tie and names compete on
   Name.compare alone. Windows, half-lives and TTLs are a few ops long,
   so entries decay, leave their window and expire, and capacities of
   1-8 against a 12-name pool keep eviction busy. *)
type hot_case = {
  groups : int;
  capacity : int;
  default_ttl : float;
  horizon : float;  (* window (Sliding) or half-life (Decayed), ms *)
  ops : (float * hot_op) list;
}

let hot_group g = Printf.sprintf "zone%d" g
let hot_name i = name_of_string (Printf.sprintf "h%02d" i)

let gen_hot_case =
  let open QCheck.Gen in
  let ms lo hi = map float_of_int (int_range lo hi) in
  let* groups = int_range 1 3 in
  let* capacity = int_range 1 8 in
  let* default_ttl = ms 20 400 in
  let* horizon = ms 5 200 in
  let group = int_range 0 (groups - 1) and name = int_range 0 11 in
  let op =
    frequency
      [
        ( 6,
          map3
            (fun group name ttl_ms -> Note { group; name; ttl_ms })
            group name
            (frequency [ (1, return None); (2, map Option.some (ms 1 150)) ]) );
        (3, map2 (fun group k -> Top { group; k }) group (int_range 0 10));
        (1, map (fun k -> Top_merged k) (int_range 0 26));
        (2, map2 (fun group name -> Score { group; name }) group name);
        (1, return Groups);
        (1, return Clear);
      ]
  in
  let dt = frequency [ (3, return 0.0); (2, ms 1 20); (1, ms 21 200) ] in
  let+ ops = list_size (int_range 0 80) (pair dt op) in
  { groups; capacity; default_ttl; horizon; ops }

let print_hot_case c =
  let op = function
    | Note { group; name; ttl_ms } ->
        Printf.sprintf "note g%d h%02d%s" group name
          (match ttl_ms with None -> "" | Some t -> Printf.sprintf " ttl=%g" t)
    | Top { group; k } -> Printf.sprintf "top g%d k=%d" group k
    | Top_merged k -> Printf.sprintf "top_merged k=%d" k
    | Score { group; name } -> Printf.sprintf "score g%d h%02d" group name
    | Groups -> "groups"
    | Clear -> "clear"
  in
  Printf.sprintf "groups=%d capacity=%d default_ttl=%g horizon=%g\n%s" c.groups
    c.capacity c.default_ttl c.horizon
    (String.concat "\n"
       (List.map (fun (dt, o) -> Printf.sprintf "+%g %s" dt (op o)) c.ops))

let same_ranked =
  List.equal (fun (n1, s1) (n2, s2) -> Dns.Name.equal n1 n2 && same_bits s1 s2)

let hotrank_matches_model =
  QCheck.Test.make ~count:500
    ~name:"hot ranking: every result bit-identical to the list-and-sort model"
    (QCheck.make ~print:print_hot_case gen_hot_case)
    (fun c ->
      List.for_all
        (fun strategy ->
          let default_ttl_ms = c.default_ttl and capacity = c.capacity in
          let t = Dns.Hotrank.create ~default_ttl_ms ~capacity ~strategy ()
          and m = Hotrank_model.create ~default_ttl_ms ~capacity ~strategy () in
          let now = ref 0.0 in
          List.for_all
            (fun (dt, op) ->
              now := !now +. dt;
              let now_ms = !now in
              match op with
              | Note { group; name; ttl_ms } ->
                  let group = hot_group group and name = hot_name name in
                  Dns.Hotrank.note t ~group ~now_ms ?ttl_ms name;
                  Hotrank_model.note m ~group ~now_ms ?ttl_ms name;
                  true
              | Top { group; k } ->
                  let group = hot_group group in
                  same_ranked
                    (Dns.Hotrank.top t ~group ~now_ms ~k)
                    (Hotrank_model.top m ~group ~now_ms ~k)
              | Top_merged k ->
                  same_ranked
                    (Dns.Hotrank.top_merged t ~now_ms ~k)
                    (Hotrank_model.top_merged m ~now_ms ~k)
              | Score { group; name } ->
                  let group = hot_group group and name = hot_name name in
                  Option.equal same_bits
                    (Dns.Hotrank.score t ~group ~now_ms name)
                    (Hotrank_model.score m ~group ~now_ms name)
              | Groups -> Dns.Hotrank.groups t = Hotrank_model.groups m
              | Clear ->
                  Dns.Hotrank.clear t;
                  Hotrank_model.clear m;
                  true)
            c.ops)
        [
          Dns.Hotrank.Sliding_count { window_ms = c.horizon };
          Dns.Hotrank.Decayed { half_life_ms = c.horizon };
        ])

(* One bundle reply's ranking: a 1,024-name group at k = 9, the
   open-loop configs' prefetch_k + 4. The reference model in
   hotrank_model.ml sorts the whole group and allocates 44,105 words a
   call, 43 per entry; the one-pass selection allocates about 100.
   Sightings are spread so that slot order is not score order. *)
let hotrank_top_allocation () =
  let t =
    Dns.Hotrank.create ~strategy:(Dns.Hotrank.Decayed { half_life_ms = 30_000.0 }) ()
  in
  let names = Array.init 1024 (fun i -> name_of_string (Printf.sprintf "h%04d" i)) in
  for i = 0 to 4 * 1024 - 1 do
    Dns.Hotrank.note t ~group:"g" ~now_ms:(float_of_int i)
      names.(if i < 1024 then i else i * i * 7919 mod 1024)
  done;
  let top () = Dns.Hotrank.top t ~group:"g" ~now_ms:5_000.0 ~k:9 in
  ignore (Sys.opaque_identity (top ()));
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (top ()));
  let words = Gc.minor_words () -. before in
  if words > 2.0 *. 1024.0 then
    Alcotest.failf "top 9 of 1,024 names allocated %.0f words" words

(* --- the confederation harness ------------------------------------ *)

(* A miniature config: big enough to exercise churn, flash and both
   fleets, small enough for CI. *)
let tiny ?(ranking = O.Decayed) ?(seed = 7) () =
  {
    O.label = "tiny";
    seed;
    clients = 2_000;
    agent_hosts = 2;
    legacy_hosts = 2;
    legacy_fraction = 0.2;
    ch_fraction = 0.05;
    names = 32;
    zipf_s = 1.25;
    steady_k = 3;
    arrival = O.Poisson { rate_per_s = 8.0 };
    duration_ms = 20_000.0;
    churn_every_ms = 8_000.0;
    ranking;
    hand_codec = false;
    meta_replicas = 2;
    flash = Some { O.at_ms = 8_000.0; len_ms = 5_000.0; fraction = 0.9; rank = 9 };
    storm = None;
    slo_target_ms = 150.0;
    slo_objective = 0.98;
  }

let write_rows path rows = Obs.Export.write_bench_json ~path rows

let read_file path = In_channel.with_open_text path In_channel.input_all

let harness_deterministic () =
  (* Two fresh runs of the same config: identical arrival schedules,
     identical event counts, byte-identical bench rows. *)
  let r1 = O.run (tiny ()) in
  let r2 = O.run (tiny ()) in
  check_string "same digest" r1.O.digest r2.O.digest;
  check_int "same arrivals" r1.O.arrivals r2.O.arrivals;
  check_int "same sim events" r1.O.sim_events r2.O.sim_events;
  check_int "same errors" r1.O.errors r2.O.errors;
  let p1 = Filename.temp_file "loadharness" ".json" in
  let p2 = Filename.temp_file "loadharness" ".json" in
  write_rows p1 (O.report_rows r1);
  write_rows p2 (O.report_rows r2);
  let s1 = read_file p1 and s2 = read_file p2 in
  Sys.remove p1;
  Sys.remove p2;
  check_bool "rows json non-empty" true (String.length s1 > 100);
  check_string "byte-identical bench rows" s1 s2;
  (* A different seed reshuffles everything. *)
  let r3 = O.run (tiny ~seed:8 ()) in
  check_bool "different seed, different digest" false (r3.O.digest = r1.O.digest)

(* A run draws each arrival as it falls due; its digest and count are
   still those of the whole schedule drawn up front from the stream the
   run splits off first for it. *)
let streamed_schedule_pinned () =
  List.iter
    (fun (what, cfg) ->
      let rng = Sim.Rng.split (Sim.Rng.create ~seed:(Int64.of_int cfg.O.seed)) in
      let times = O.schedule cfg.O.arrival ~rng ~duration_ms:cfg.O.duration_ms in
      let r = O.run cfg in
      check_string (what ^ ": digest") (O.schedule_digest times) r.O.digest;
      check_int (what ^ ": arrivals") (List.length times) r.O.arrivals;
      if cfg.O.flash <> None then
        check_bool (what ^ ": the crowd arrived") true (Sim.Stats.count r.O.flashed > 0))
    [
      ("poisson", { (tiny ()) with O.flash = None });
      ( "diurnal with a flash crowd",
        {
          (tiny ()) with
          O.arrival =
            O.Diurnal
              { base_per_s = 2.0; peak_per_s = 12.0; period_ms = 10_000.0; phase_ms = 0.0 };
        } );
    ]

let harness_event_budget () =
  (* The CI guard: the tiny config must stay inside a fixed sim-event
     budget, so a runaway fiber (or an accidental retry storm) fails
     the suite instead of quietly tripling the run. *)
  let r = O.run (tiny ()) in
  check_bool "no errors" true (r.O.errors = 0);
  check_bool
    (Printf.sprintf "sim events %d within budget" r.O.sim_events)
    true
    (r.O.sim_events < 15_000);
  check_bool "prefetch seeded" true (r.O.prefetch_seeded > 0)

(* The load entry's gate on a real run: at the budget passes, one
   event over fails and names the config, for both budgets. *)
let load_gate_budget () =
  let r = O.run (tiny ()) in
  List.iter
    (fun budget ->
      check_strings "at the budget" []
        (Experiments.load_gate ~budget { r with O.sim_events = budget });
      check_strings "one event over"
        [ Printf.sprintf "FAIL: tiny executed %d sim events (budget %d)" (budget + 1) budget ]
        (Experiments.load_gate ~budget { r with O.sim_events = budget + 1 }))
    [ Experiments.load_smoke_budget; Experiments.load_full_budget ]

(* Nothing grows with run length: in one process, the smoke config at
   1x and then at 4x its window leaves the same live heap, within a
   fixed slack, once its report is dropped. *)
let live_heap_flat_in_run_length () =
  let live_after scale =
    let c = O.smoke () in
    ignore (Sys.opaque_identity (O.run { c with O.duration_ms = c.O.duration_ms *. scale }));
    Gc.full_major ();
    (Gc.stat ()).live_words
  in
  let x1 = live_after 1.0 in
  let x4 = live_after 4.0 in
  if x4 > x1 + 4_096 then
    Alcotest.failf "live words %d after the 4x window, %d after the 1x" x4 x1

(* Nor does anything grow while a run goes on. A CPU-time timer stops
   the smoke config every few milliseconds, at 4x and then at 8x its
   window, and counts the live heap after a full major collection. The
   peak may grow by the latency samples' few words per extra arrival
   and no more; drawing every arrival before the first one ran held
   about 17 words an arrival all run long. A Gc alarm cannot take the
   timer's place: under OCaml 5.1 it fires every other major cycle at
   best, and it did not fire once during a 4x run after the earlier
   tests had grown the heap. *)
let live_heap_flat_during_run () =
  let peak = ref 0 and sampling = ref false in
  let arm s =
    ignore (Unix.setitimer Unix.ITIMER_VIRTUAL { Unix.it_interval = 0.0; it_value = s })
  in
  (* The next sample waits four times this one's cost, so collecting
     takes at most a fifth of the run. *)
  let sample _ =
    if !sampling then begin
      let t = Sys.time () in
      Gc.full_major ();
      peak := max !peak (Gc.stat ()).live_words;
      arm (Float.max 0.005 (4.0 *. (Sys.time () -. t)))
    end
  in
  let peak_live scale =
    let c = O.smoke () in
    peak := 0;
    let previous = Sys.signal Sys.sigvtalrm (Sys.Signal_handle sample) in
    sampling := true;
    arm 0.005;
    let r =
      Fun.protect
        ~finally:(fun () ->
          sampling := false;
          arm 0.0;
          Sys.set_signal Sys.sigvtalrm previous)
        (fun () -> O.run { c with O.duration_ms = c.O.duration_ms *. scale })
    in
    (!peak, r.O.arrivals)
  in
  let p4, a4 = peak_live 4.0 in
  let p8, a8 = peak_live 8.0 in
  let per_arrival = float_of_int (p8 - p4) /. float_of_int (a8 - a4) in
  if per_arrival > 8.0 then
    Alcotest.failf
      "peak live words %d during the 4x window (%d arrivals), %d during the \
       8x (%d): %.1f words an extra arrival"
      p4 a4 p8 a8 per_arrival

let suite =
  [
    Alcotest.test_case "schedule determinism" `Quick schedule_deterministic;
    Alcotest.test_case "poisson interarrival mean" `Quick poisson_mean;
    Alcotest.test_case "diurnal phase modulation" `Quick diurnal_phase;
    Alcotest.test_case "open vs closed loop queueing" `Quick open_vs_closed;
    qtest prop_monotone_decay;
    qtest prop_flash_bounded;
    qtest prop_ttl_expiry;
    Alcotest.test_case "hot ranking tie-break pinned" `Quick tie_break_pinned;
    qtest hotrank_matches_model;
    Alcotest.test_case "hot ranking top allocation" `Quick hotrank_top_allocation;
    Alcotest.test_case "harness determinism" `Quick harness_deterministic;
    Alcotest.test_case "streamed schedule pinned" `Quick streamed_schedule_pinned;
    Alcotest.test_case "harness event budget" `Quick harness_event_budget;
    Alcotest.test_case "load gate: sim-event budget" `Quick load_gate_budget;
    Alcotest.test_case "live heap flat in run length" `Quick live_heap_flat_in_run_length;
    Alcotest.test_case "live heap flat during a run" `Quick live_heap_flat_during_run;
  ]
