(* The benchmark harness: runs every experiment of the registry once,
   writes BENCH_hns.json and BENCH_obs.json from those runs, prints
   every table and figure of the paper's evaluation (ours/paper side by
   side), then runs a Bechamel wall-clock benchmark of the simulated
   workloads. Exits 1 if an experiment's gate fails.

   Usage:
     dune exec bench/main.exe              # everything
     dune exec bench/main.exe -- table-3.1 # one experiment
     dune exec bench/main.exe -- --list    # available names
     dune exec bench/main.exe -- --no-bechamel *)

(* --- Bechamel: wall-clock cost of each experiment's workload -------- *)

let bechamel_tests () =
  let open Bechamel in
  (* Each staged thunk runs a compact version of the experiment's
     simulated workload; Bechamel measures the harness's real cost. *)
  let scn = lazy (Workload.Scenario.build ()) in
  let table31 () =
    let scn = Lazy.force scn in
    ignore (Experiments.measure_table_3_1_row scn Hns.Import.All_linked)
  in
  let t32_world = lazy (Experiments.t32_world ()) in
  let table32 () =
    ignore (Experiments.t32_measure (Lazy.force t32_world) Hns.Cache.Marshalled "six.z")
  in
  let find_nsm () =
    let scn = Lazy.force scn in
    Workload.Scenario.in_sim scn (fun () ->
        let hns = Workload.Scenario.new_hns scn ~on:scn.Workload.Scenario.client_stack in
        match
          Hns.Client.find_nsm hns ~context:scn.Workload.Scenario.bind_context
            ~query_class:Hns.Query_class.hrpc_binding
        with
        | Ok _ -> ()
        | Error e -> failwith (Hns.Errors.to_string e))
  in
  let marshal_value =
    Wire.Value.Array
      (List.init 6 (fun i ->
           Wire.Value.Struct
             [ ("name", Wire.Value.str "six.z"); ("a", Wire.Value.Uint (Int32.of_int i)) ]))
  in
  let marshal_ty =
    Wire.Idl.T_array
      (Wire.Idl.T_struct [ ("name", Wire.Idl.T_string); ("a", Wire.Idl.T_uint) ])
  in
  let nsm_specimen =
    {
      Hns.Meta_schema.nsm_host = "nsm.cs.washington.edu";
      nsm_host_context = "uw-cs";
      nsm_port = 2049;
      nsm_prog = 200_000;
      nsm_vers = 2;
      nsm_suite =
        {
          Hrpc.Component.data_rep = Wire.Data_rep.Xdr;
          transport = Hrpc.Component.T_udp;
          control = Hrpc.Component.C_sunrpc;
        };
    }
  in
  (* The DNS wire codec alone, on a meta-store query, its one-answer
     UNSPEC reply, and the six-answer A reply that bench/perf's
     wire.msg_codec_ns probe round-trips. *)
  let codec_rows (shape, msg) =
    let bytes = Dns.Msg.encode msg in
    [
      Test.make ~name:("dns encode " ^ shape)
        (Staged.stage (fun () -> ignore (Dns.Msg.encode msg)));
      Test.make ~name:("dns decode " ^ shape)
        (Staged.stage (fun () -> ignore (Dns.Msg.decode bytes)));
    ]
  in
  let meta_key = Hns.Meta_schema.context_key "uw-cs" in
  let meta_query = Dns.Msg.query ~id:1 meta_key Dns.Rr.T_unspec in
  let meta_reply =
    Dns.Msg.response ~request:meta_query
      [
        Dns.Rr.make meta_key
          (Dns.Rr.Unspec
             (Wire.Xdr.to_string Hns.Meta_schema.string_ty (Wire.Value.str "bind-uw-cs")));
      ]
  in
  let host = Dns.Name.of_string "samoa.cs.washington.edu" in
  let six_reply =
    Dns.Msg.response
      ~request:(Dns.Msg.query ~id:7 host Dns.Rr.T_a)
      (List.init 6 (fun i -> Dns.Rr.make host (Dns.Rr.A (Int32.of_int (0x0a000001 + i)))))
  in
  (* The hot-name ranking behind every hinted bundle reply: a
     1,024-name group, four sightings a name on average, spread so that
     slot order is not score order. *)
  let hot =
    Dns.Hotrank.create ~strategy:(Dns.Hotrank.Decayed { half_life_ms = 30_000.0 }) ()
  in
  let hot_names =
    Array.init 1024 (fun i ->
        Dns.Name.of_labels [ Printf.sprintf "h%04d" i; "cs"; "washington"; "edu" ])
  in
  for i = 0 to (4 * 1024) - 1 do
    Dns.Hotrank.note hot ~group:"g" ~now_ms:(float_of_int i)
      hot_names.(if i < 1024 then i else i * i * 7919 mod 1024)
  done;
  (* The engine alone, one whole run each: timed waits that each get
     their answer 0.1 ms in, and reads woken by a fill at the same
     instant, beside plain sleeps as the per-event baseline. *)
  let engine_answered_waits () =
    let e = Sim.Engine.create () and mb = Sim.Engine.Mailbox.create () in
    Sim.Engine.spawn e (fun () ->
        for _ = 1 to 1_000 do
          ignore (Sim.Engine.Mailbox.recv_timeout mb 1000.0)
        done);
    Sim.Engine.spawn e (fun () ->
        for i = 1 to 1_000 do
          Sim.Engine.sleep 0.1;
          Sim.Engine.Mailbox.send mb i
        done);
    Sim.Engine.run e
  in
  let engine_wakes () =
    let e = Sim.Engine.create () in
    Sim.Engine.spawn e (fun () ->
        for _ = 1 to 1_000 do
          let iv = Sim.Engine.Ivar.create () in
          Sim.Engine.at e 0.0 (fun () -> Sim.Engine.Ivar.fill iv ());
          Sim.Engine.Ivar.read iv
        done);
    Sim.Engine.run e
  in
  let engine_sleeps () =
    let e = Sim.Engine.create () in
    Sim.Engine.spawn e (fun () ->
        for _ = 1 to 1_000 do
          Sim.Engine.sleep 0.1
        done);
    Sim.Engine.run e
  in
  [
    Test.make ~name:"table-3.1 row (all-linked, 3 cache states)"
      (Staged.stage table31);
    Test.make ~name:"table-3.2 cell (marshalled, 6 RRs)" (Staged.stage table32);
    Test.make ~name:"find-nsm (cold cache)" (Staged.stage find_nsm);
    Test.make ~name:"xdr marshal 6-RR answer"
      (Staged.stage (fun () -> ignore (Wire.Xdr.to_string marshal_ty marshal_value)));
    Test.make ~name:"generic marshal 6-RR answer"
      (Staged.stage (fun () ->
           ignore (Wire.Generic_marshal.marshal Wire.Data_rep.Xdr marshal_ty marshal_value)));
    Test.make ~name:"hand codec nsm_info round-trip"
      (Staged.stage (fun () ->
           let wire = Hns.Hot_codec.encode_nsm_info nsm_specimen in
           ignore (Hns.Hot_codec.decode_nsm_info wire)));
    Test.make ~name:"hotrank top 9 of 1,024 names"
      (Staged.stage (fun () -> ignore (Dns.Hotrank.top hot ~group:"g" ~now_ms:5_000.0 ~k:9)));
    Test.make ~name:"hotrank note (name present)"
      (Staged.stage (fun () ->
           Dns.Hotrank.note hot ~group:"g" ~now_ms:5_000.0 hot_names.(0)));
    Test.make ~name:"engine: 1,000 recv_timeouts answered after 0.1 ms"
      (Staged.stage engine_answered_waits);
    Test.make ~name:"engine: 1,000 zero-delay wakes" (Staged.stage engine_wakes);
    Test.make ~name:"engine: 1,000 sleeps" (Staged.stage engine_sleeps);
  ]
  @ List.concat_map codec_rows
      [ ("meta query", meta_query); ("meta UNSPEC reply", meta_reply); ("6-answer A reply", six_reply) ]

let run_bechamel () =
  let open Bechamel in
  print_endline "Bechamel: wall-clock cost of the simulated workloads";
  print_endline "  (virtual-time results above are the paper reproduction; this";
  print_endline "   measures the harness itself)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:(Some 500) ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "  %-45s %12.0f ns/run\n%!" name est
          | _ -> Printf.printf "  %-45s (no estimate)\n%!" name)
        analyzed)
    (List.map (fun t -> Test.make_grouped ~name:"" [ t ]) (bechamel_tests ()));
  print_newline ()

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let args = List.filter (fun a -> a <> "--") args in
  let with_bechamel = not (List.mem "--no-bechamel" args) in
  let args = List.filter (fun a -> a <> "--no-bechamel") args in
  match args with
  | [ "--list" ] ->
      List.iter
        (fun e -> Printf.printf "%-12s %s\n" e.Experiments.name e.Experiments.title)
        Experiments.registry
  | [] ->
      print_endline "HNS evaluation: reproducing every table and figure (SOSP 1987)";
      print_endline "================================================================";
      print_newline ();
      (* The artifacts come from the registry's runs alone, before any
         printer's own probes or Bechamel add to the metrics registry. *)
      let runs, failures = Experiments.write_json_artifacts ~n:Experiments.artifact_n () in
      print_endline
        "wrote BENCH_hns.json (latency distributions) and BENCH_obs.json (metrics registry)";
      print_newline ();
      List.iter
        (fun e ->
          (List.assq e runs).Experiments.print ();
          print_endline "%%";
          print_newline ())
        Experiments.registry;
      if with_bechamel then run_bechamel ();
      List.iter prerr_endline failures;
      if failures <> [] then exit 1
  | names ->
      let run name =
        match Experiments.find name with
        | Some e -> Experiments.run_one ~n:Experiments.artifact_n e
        | None ->
            Printf.eprintf "unknown experiment %S (try --list)\n" name;
            exit 1
      in
      exit (List.fold_left (fun status name -> max status (run name)) 0 names)
