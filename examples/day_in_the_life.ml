(* A day in the life of the federation: four virtual hours of mixed
   workload from several client machines — host lookups, imports,
   file fetches, mail, remote jobs — with periodic native updates to
   the underlying name services, all on the virtual clock.

     dune exec examples/day_in_the_life.exe

   Ends with the kind of report an operator would want: per-server
   load, cache effectiveness, and the latency distribution. *)

module S = Workload.Scenario

let () =
  let scn = S.build () in
  let latency = Sim.Stats.create ~name:"query latency" () in
  let histogram = Sim.Stats.Histogram.create ~lo:0.0 ~hi:300.0 ~bins:10 in
  let failures = ref 0 and queries = ref 0 in
  S.in_sim scn (fun () ->
      let _installed = Services.Setup.install scn in
      let rng = Sim.Rng.create ~seed:0xDA11L in
      let zipf = Workload.Zipf.create ~n:16 ~s:1.1 in
      let hosts = Array.of_list (Workload.Namegen.hosts ~count:16 ~zone:scn.zone) in
      (* Three client machines, each with its own linked HNS. *)
      let clients = [ scn.client_stack; scn.agent_stack; scn.service_stack ] in
      let spawn_client i stack =
        let hns = S.new_hns scn ~on:stack in
        let filing = Services.Filing.create hns in
        let mail = Services.Mail.create hns ~from:(Printf.sprintf "client%d@hcs" i) in
        let rexec = Services.Rexec.create hns in
        let one_action () =
          let t0 = Sim.Engine.time () in
          let outcome =
            match Sim.Rng.int rng 10 with
            | 0 | 1 | 2 | 3 ->
                (* host lookup with Zipf locality *)
                let host = hosts.(Workload.Zipf.sample zipf rng) in
                (match
                   Hns.Client.resolve hns ~query_class:Hns.Query_class.host_address
                     ~payload_ty:Hns.Nsm_intf.host_address_payload_ty
                     (Hns.Hns_name.make ~context:scn.bind_context ~name:host)
                 with
                | Ok (Some _) -> true
                | _ -> false)
            | 4 | 5 ->
                (* file fetch, sometimes from the Xerox world *)
                let name =
                  if Sim.Rng.int rng 3 = 0 then Services.Setup.xde_file_name scn "notes"
                  else Services.Setup.unix_file_name scn "report.tex"
                in
                Result.is_ok (Services.Filing.fetch filing name)
            | 6 | 7 ->
                Result.is_ok
                  (Services.Mail.send mail
                     ~recipient:
                       (Services.Setup.user_name scn
                          (Sim.Rng.pick rng [| "alice"; "bob"; "carol"; "dave" |]))
                     ~subject:"soak" ~body:"tick")
            | 8 ->
                Result.is_ok
                  (Services.Rexec.run rexec
                     ~host:
                       (Hns.Hns_name.make ~context:scn.bind_context
                          ~name:("samoa." ^ scn.zone))
                     ~command:"date" ~args:[])
            | _ -> (
                (* a full import *)
                match
                  Hns.Client.resolve hns ~query_class:Hns.Query_class.hrpc_binding
                    ~payload_ty:Hns.Nsm_intf.binding_payload_ty
                    ~service:scn.service_name
                    (Hns.Hns_name.make ~context:scn.bind_context ~name:scn.service_host)
                with
                | Ok (Some _) -> true
                | _ -> false)
          in
          incr queries;
          if not outcome then incr failures;
          let d = Sim.Engine.time () -. t0 in
          Sim.Stats.add latency d;
          Sim.Stats.Histogram.add histogram d
        in
        Sim.Engine.spawn_child ~name:(Printf.sprintf "client-%d" i) (fun () ->
            (* ~4 virtual hours, one action every ~20 s per client *)
            for _ = 1 to 720 do
              Sim.Engine.sleep (15_000.0 +. Sim.Rng.float rng 10_000.0);
              one_action ()
            done)
      in
      List.iteri spawn_client clients;
      (* an administrator process renames things underneath everyone *)
      Sim.Engine.spawn_child ~name:"admin" (fun () ->
          for i = 1 to 12 do
            Sim.Engine.sleep 1_200_000.0;
            Dns.Db.add (Dns.Zone.db scn.public_zone)
              (Dns.Rr.make
                 (Dns.Name.of_string (Printf.sprintf "guest%02d.%s" i scn.zone))
                 (Dns.Rr.A (Int32.of_int (0x0A00F000 + i))))
          done));
  Printf.printf "== Day-in-the-life report (%.1f virtual hours) ==\n"
    (Sim.Engine.now scn.engine /. 3_600_000.0);
  Printf.printf "queries: %d   failures: %d\n" !queries !failures;
  Format.printf "%a@." Sim.Stats.pp latency;
  print_endline "latency distribution (ms):";
  Format.printf "%a" Sim.Stats.Histogram.pp histogram;
  Printf.printf "public BIND served %d queries; meta-BIND %d; Clearinghouse %d accesses\n"
    (Dns.Server.queries_served scn.public_bind)
    (Dns.Server.queries_served scn.meta_bind)
    (Obs.Metrics.read (Clearinghouse.Ch_server.metrics scn.ch) "clearinghouse.server.accesses");
  Printf.printf "network: %d packets, %d bytes\n"
    (Obs.Metrics.read (Transport.Netstack.metrics scn.net) "transport.netstack.packets_sent")
    (Obs.Metrics.read (Transport.Netstack.metrics scn.net) "transport.netstack.bytes_sent")
