(* hns_cli: poke at the simulated HCS name service from the command
   line.

     dune exec bin/hns_cli.exe -- resolve uw-cs!vanuatu.cs.washington.edu
     dune exec bin/hns_cli.exe -- import --service DesiredService \
         uw-cs!vanuatu.cs.washington.edu
     dune exec bin/hns_cli.exe -- meta-dump
     dune exec bin/hns_cli.exe -- trace
     dune exec bin/hns_cli.exe -- contexts

   Every invocation builds the calibrated testbed, performs the
   operation on the virtual clock, and reports virtual elapsed time. *)

open Cmdliner

module S = Workload.Scenario

let with_scenario f =
  let scn = S.build () in
  S.in_sim scn (fun () ->
      let hns = S.new_hns scn ~on:scn.client_stack in
      f scn hns)

let parse_hns_name s =
  match Hns.Hns_name.of_string s with
  | name -> Ok name
  | exception Invalid_argument m -> Error m

(* --- observability plumbing --- *)

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "After the operation, print the span tree and the metrics panel \
           for this run (scenario set-up is excluded).")

(* Building the scenario itself exercises the instrumented layers, so
   with [--stats] the registry is reset and tracing enabled only around
   the measured operation. *)
let with_obs ~stats f =
  if stats then begin
    Obs.Metrics.reset ();
    Obs.Span.clear ();
    Obs.Span.enable ()
  end;
  let r = f () in
  if stats then begin
    Format.printf "@.spans:@.%a" Obs.Span.pp_tree ();
    Format.printf "@.metrics:@.%a" Obs.Export.pp_metrics ()
  end;
  r

(* --- resolve --- *)

let resolve_cmd =
  let name_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"HNS-NAME" ~doc:"Name to resolve, as context!individual-name.")
  in
  let class_arg =
    Arg.(
      value
      & opt string Hns.Query_class.host_address
      & info [ "query-class"; "q" ] ~docv:"CLASS"
          ~doc:"Query class (HostAddress, FileLocation, MailboxLocation).")
  in
  let run name_str query_class stats =
    match parse_hns_name name_str with
    | Error m ->
        Printf.eprintf "bad HNS name: %s\n" m;
        1
    | Ok name -> (
        match Hns.Nsm_intf.payload_ty_of query_class with
        | None ->
            Printf.eprintf "unknown query class %S\n" query_class;
            1
        | Some payload_ty ->
            with_scenario (fun _scn hns ->
                with_obs ~stats (fun () ->
                    let t0 = Sim.Engine.time () in
                    match Hns.Client.resolve hns ~query_class ~payload_ty name with
                    | Ok (Some v) ->
                        let rendered =
                          match v with
                          | Wire.Value.Uint ip -> Transport.Address.ip_to_string ip
                          | Wire.Value.Str s -> s
                          | other -> Wire.Value.to_string other
                        in
                        Printf.printf "%s = %s   (%.1f ms virtual)\n"
                          (Hns.Hns_name.to_string name) rendered
                          (Sim.Engine.time () -. t0);
                        0
                    | Ok None ->
                        Printf.printf "%s: not found\n" (Hns.Hns_name.to_string name);
                        1
                    | Error e ->
                        Printf.printf "error: %s\n" (Hns.Errors.to_string e);
                        1)))
  in
  Cmd.v
    (Cmd.info "resolve" ~doc:"Resolve an HNS name through the federation.")
    Term.(const run $ name_arg $ class_arg $ stats_arg)

(* --- import --- *)

let import_cmd =
  let name_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"HNS-NAME" ~doc:"Host or service object, as context!name.")
  in
  let service_arg =
    Arg.(
      value & opt string "DesiredService"
      & info [ "service"; "s" ] ~docv:"SERVICE" ~doc:"ServiceName to bind to.")
  in
  let arrangement_arg =
    let arrangement_conv =
      Arg.enum
        [
          ("all-linked", Hns.Import.All_linked);
          ("combined-agent", Hns.Import.Combined_agent);
          ("remote-hns", Hns.Import.Remote_hns);
          ("remote-nsms", Hns.Import.Remote_nsms);
          ("all-remote", Hns.Import.All_remote);
        ]
    in
    Arg.(
      value & opt arrangement_conv Hns.Import.All_linked
      & info [ "arrangement"; "a" ] ~docv:"ARRANGEMENT"
          ~doc:"Colocation arrangement (Table 3.1 rows).")
  in
  let run name_str service arrangement =
    match parse_hns_name name_str with
    | Error m ->
        Printf.eprintf "bad HNS name: %s\n" m;
        1
    | Ok name ->
        let scn = S.build () in
        S.in_sim scn (fun () ->
            let p = S.arrange scn arrangement in
            let t0 = Sim.Engine.time () in
            let r = Hns.Import.import p.env arrangement ~service name in
            let elapsed = Sim.Engine.time () -. t0 in
            S.stop_parties p;
            match r with
            | Ok binding ->
                Printf.printf "binding: %s   (%s, %.1f ms virtual)\n"
                  (Format.asprintf "%a" Hrpc.Binding.pp binding)
                  (Hns.Import.arrangement_name arrangement)
                  elapsed;
                0
            | Error e ->
                Printf.printf "import failed: %s\n" (Hns.Errors.to_string e);
                1)
  in
  Cmd.v
    (Cmd.info "import" ~doc:"Import an HRPC binding for a service via the HNS.")
    Term.(const run $ name_arg $ service_arg $ arrangement_arg)

(* --- meta-dump --- *)

let meta_dump_cmd =
  let run () =
    with_scenario (fun scn _hns ->
        match
          Dns.Axfr.fetch scn.client_stack ~server:(Dns.Server.addr scn.meta_bind)
            ~zone:Hns.Meta_schema.zone_origin
        with
        | Error e ->
            Printf.printf "transfer failed: %s\n" (Format.asprintf "%a" Dns.Axfr.pp_error e);
            1
        | Ok records ->
            Printf.printf "meta-naming database (%d records):\n" (List.length records);
            List.iter
              (fun (rr : Dns.Rr.t) ->
                match rr.rdata with
                | Dns.Rr.Unspec bytes ->
                    let rendered =
                      match Hns.Meta_schema.ty_of_key rr.name with
                      | Some ty -> (
                          match Wire.Xdr.of_string ty bytes with
                          | v -> Wire.Value.to_string v
                          | exception _ -> Printf.sprintf "<%d bytes>" (String.length bytes))
                      | None -> Printf.sprintf "<%d bytes>" (String.length bytes)
                    in
                    Printf.printf "  %-42s %s\n" (Dns.Name.to_string rr.name) rendered
                | Dns.Rr.Soa _ -> Printf.printf "  %-42s (SOA)\n" (Dns.Name.to_string rr.name)
                | other -> Printf.printf "  %-42s %s\n" (Dns.Name.to_string rr.name)
                            (Format.asprintf "%a" Dns.Rr.pp_rdata other))
              records;
            0)
  in
  Cmd.v
    (Cmd.info "meta-dump" ~doc:"Zone-transfer and pretty-print the meta-naming database.")
    Term.(const run $ const ())

(* --- contexts --- *)

let contexts_cmd =
  let run () =
    with_scenario (fun scn _hns ->
        match
          Dns.Axfr.fetch scn.client_stack ~server:(Dns.Server.addr scn.meta_bind)
            ~zone:Hns.Meta_schema.zone_origin
        with
        | Error e ->
            Printf.printf "transfer failed: %s\n" (Format.asprintf "%a" Dns.Axfr.pp_error e);
            1
        | Ok records ->
            print_endline "registered contexts:";
            List.iter
              (fun (rr : Dns.Rr.t) ->
                match (Dns.Name.labels rr.name, rr.rdata) with
                | labels, Dns.Rr.Unspec bytes
                  when List.exists (String.equal "ctx") labels -> (
                    let context =
                      labels
                      |> List.filter (fun l -> l <> "ctx" && l <> "hns-meta")
                      |> String.concat "."
                    in
                    match Wire.Xdr.of_string Wire.Idl.T_string bytes with
                    | Wire.Value.Str ns -> Printf.printf "  %-20s -> %s\n" context ns
                    | _ | (exception _) -> ())
                | _ -> ())
              records;
            0)
  in
  Cmd.v
    (Cmd.info "contexts" ~doc:"List contexts and the name services they map to.")
    Term.(const run $ const ())

(* --- preload --- *)

let preload_cmd =
  let name_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"HNS-NAME"
          ~doc:
            "Name to resolve after preloading (default: the testbed's service \
             host). The resolution demonstrates that the warmed cache answers \
             every meta mapping locally.")
  in
  let run name_str stats =
    with_scenario (fun scn hns ->
        with_obs ~stats (fun () ->
            let name =
              match name_str with
              | Some s -> Hns.Hns_name.of_string s
              | None ->
                  Hns.Hns_name.make ~context:scn.bind_context
                    ~name:scn.service_host
            in
            let t0 = Sim.Engine.time () in
            match Hns.Client.preload hns with
            | Error e ->
                Printf.printf "preload failed: %s\n" (Hns.Errors.to_string e);
                1
            | Ok seeded -> (
                let t1 = Sim.Engine.time () in
                Printf.printf
                  "preloaded %d meta mappings via zone transfer   (%.1f ms \
                   virtual)\n"
                  seeded (t1 -. t0);
                match
                  Hns.Client.resolve hns
                    ~query_class:Hns.Query_class.host_address
                    ~payload_ty:Hns.Nsm_intf.host_address_payload_ty name
                with
                | Ok (Some v) ->
                    let rendered =
                      match v with
                      | Wire.Value.Uint ip -> Transport.Address.ip_to_string ip
                      | other -> Wire.Value.to_string other
                    in
                    Printf.printf
                      "%s = %s   (first resolution %.1f ms virtual, %d remote \
                       meta lookups)\n"
                      (Hns.Hns_name.to_string name)
                      rendered
                      (Sim.Engine.time () -. t1)
                      (Obs.Metrics.read
                         (Hns.Meta_client.metrics (Hns.Client.meta hns))
                         "hns.meta.remote_lookups");
                    0
                | Ok None ->
                    Printf.printf "%s: not found\n" (Hns.Hns_name.to_string name);
                    1
                | Error e ->
                    Printf.printf "error: %s\n" (Hns.Errors.to_string e);
                    1)))
  in
  Cmd.v
    (Cmd.info "preload"
       ~doc:
         "Warm the meta-naming cache with a full zone transfer (AXFR), then \
          resolve a name against the preloaded cache.")
    Term.(const run $ name_arg $ stats_arg)

(* --- trace --- *)

let trace_cmd =
  let run stats =
    with_scenario (fun scn hns ->
        with_obs ~stats (fun () ->
        (* Narrate one FindNSM by instrumenting the virtual clock. *)
        let name = Hns.Hns_name.make ~context:scn.bind_context ~name:scn.service_host in
        Printf.printf "FindNSM(%S, %S):\n" name.context Hns.Query_class.hrpc_binding;
        let t0 = Sim.Engine.time () in
        let print_walk () =
          List.iter
            (fun (key, hit, cost) ->
              Printf.printf "    %-52s %-4s %6.1f ms\n" key
                (if hit then "hit" else "MISS")
                cost)
            (Hns.Meta_client.walk_log (Hns.Client.meta hns));
          Hns.Meta_client.clear_walk_log (Hns.Client.meta hns)
        in
        (match
           Hns.Client.find_nsm hns ~context:name.context
             ~query_class:Hns.Query_class.hrpc_binding
         with
        | Ok r ->
            Printf.printf "  designated NSM %S of name service %S\n" r.nsm_name r.ns_name;
            Printf.printf "  binding %s\n" (Format.asprintf "%a" Hrpc.Binding.pp r.binding);
            Printf.printf "  cold walk (%.1f ms), mapping by mapping:\n"
              (Sim.Engine.time () -. t0);
            print_walk ()
        | Error e -> Printf.printf "  failed: %s\n" (Hns.Errors.to_string e));
        let t1 = Sim.Engine.time () in
        ignore
          (Hns.Client.find_nsm hns ~context:name.context
             ~query_class:Hns.Query_class.hrpc_binding);
        Printf.printf "  warm walk (%.1f ms):\n" (Sim.Engine.time () -. t1);
        print_walk ();
        0))
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Trace a cold and a warm FindNSM walk.")
    Term.(const run $ stats_arg)

(* --- stats --- *)

let stats_cmd =
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit one compact JSON object per metric instead of the table.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"PATH"
          ~doc:"Also write the registry as a BENCH_obs.json snapshot to $(docv).")
  in
  let neg_ttl_arg =
    Arg.(
      value
      & opt float 5000.0
      & info [ "negative-ttl" ] ~docv:"MS"
          ~doc:
            "Negative-TTL cap in virtual milliseconds (0 disables negative \
             caching). The effective TTL actually applied is the meta zone's \
             SOA minimum, never above this cap.")
  in
  let slo_arg =
    Arg.(
      value & flag
      & info [ "slo" ]
          ~doc:
            "Also print the SLO panel: per-objective compliance, error-budget \
             remaining, burn rate and windowed latency percentiles for the \
             scripted workload.")
  in
  let run json out negative_ttl_ms slo =
    let scn = S.build () in
    (* A second testbed with the bundle answerer and resolve-tail
       prefetch enabled, for the shared host agent's workload. The
       prefetch source ranks hosts by recent demand, so warm the
       public BIND's hot-name tracker before the measured run. *)
    let agent_scn = S.build ~bundle:true ~prefetch:true () in
    Experiments.warm_hot_tracker agent_scn;
    (* Building the scenarios exercises the instrumented layers too;
       only the scripted workloads below should register. *)
    Obs.Metrics.reset ();
    if slo then Obs.Slo.clear ();
    let neg_cap, neg_eff =
      S.in_sim scn (fun () ->
          let hns = S.new_hns ~negative_ttl_ms scn ~on:scn.client_stack in
          (* Scripted workload: a cold then warm resolve for each query
             class, so every instrumented layer registers activity. *)
          let name =
            Hns.Hns_name.make ~context:scn.bind_context ~name:scn.service_host
          in
          let resolve ?service query_class =
            match Hns.Nsm_intf.payload_ty_of query_class with
            | None -> ()
            | Some payload_ty ->
                ignore (Hns.Client.resolve hns ~query_class ~payload_ty ?service name)
          in
          let twice ?service qc =
            resolve ?service qc;
            resolve ?service qc
          in
          twice Hns.Query_class.host_address;
          twice ~service:scn.service_name Hns.Query_class.hrpc_binding;
          (* A miss on an absent name makes the server attach the zone
             SOA to its negative reply (RFC 2308), which is where the
             effective TTL below comes from. *)
          let meta = Hns.Client.meta hns in
          ignore
            (Hns.Meta_client.lookup meta
               ~key:(Hns.Meta_schema.context_key "no-such-context")
               ~ty:Hns.Meta_schema.string_ty);
          ( Hns.Meta_client.negative_ttl_ms meta,
            Hns.Meta_client.effective_negative_ttl_ms meta ))
    in
    (* Shared host agent workload: an 8-resolve session through one
       agent (shared demarshalled cache + prefetched tail), then a
       6-way cold burst (cross-process coalescing). *)
    let requests, hits, ratio, seeded, prefetch_hits =
      Experiments.agent_session agent_scn ()
    in
    let upstream, coalesced, _ = Experiments.agent_burst agent_scn () in
    (* Replicated meta-store panel: a short burst of cold meta reads
       routed over a 2-replica fleet, reported per replica (QPS over
       the burst window, SOA serial lag behind the primary, and the
       client's routing view). *)
    let replica_rows, member_rows =
      let rscn = S.build ~meta_replicas:2 () in
      S.in_sim rscn (fun () ->
          let secs = S.attach_meta_replicas rscn in
          let hns = S.new_hns rscn ~on:rscn.client_stack in
          let meta = Hns.Client.meta hns in
          let q0 =
            List.map Dns.Server.queries_served rscn.S.meta_replica_servers
          in
          let t0 = Sim.Engine.time () in
          for _ = 1 to 24 do
            Hns.Cache.flush (Hns.Meta_client.cache meta);
            ignore
              (Hns.Meta_client.lookup meta
                 ~key:(Hns.Meta_schema.context_key rscn.bind_context)
                 ~ty:Hns.Meta_schema.string_ty)
          done;
          let dur_s = Float.max 0.001 ((Sim.Engine.time () -. t0) /. 1000.0) in
          let prim_serial = Dns.Zone.serial rscn.meta_zone in
          let rows =
            List.map2
              (fun (srv, q_before) sec ->
                ( (Transport.Netstack.host (Dns.Server.stack srv))
                    .Sim.Topology.hostname,
                  float_of_int (Dns.Server.queries_served srv - q_before)
                  /. dur_s,
                  Int32.sub prim_serial (Dns.Secondary.serial sec) ))
              (List.combine rscn.S.meta_replica_servers q0)
              secs
          in
          let members =
            match Hns.Meta_client.replica_set meta with
            | None -> []
            | Some set -> Dns.Replica_set.stats set
          in
          S.detach_meta_replicas rscn secs;
          (rows, members))
    in
    if json then print_string (Obs.Export.metrics_json_lines ())
    else Format.printf "%a" Obs.Export.pp_metrics ();
    Format.printf
      "negative TTL: cap %.0f ms, effective %.0f ms (zone SOA minimum)@."
      neg_cap neg_eff;
    Format.printf
      "agent session: %d requests, %d shared-cache hits (ratio %.2f); \
       prefetch yield: %d addrs seeded, %d tail round trips skipped@."
      requests hits ratio seeded prefetch_hits;
    Format.printf
      "agent burst: 6 concurrent cold clients -> %d upstream meta query(ies), \
       %d coalesced@."
      upstream coalesced;
    Format.printf "meta replicas (24 routed cold reads over a 2-replica fleet):@.";
    List.iter
      (fun (host, qps, lag) ->
        Format.printf "  %-10s %6.1f q/s, serial lag %ld@." host qps lag)
      replica_rows;
    List.iter
      (fun (m : Dns.Replica_set.member_stats) ->
        Format.printf
          "  %-21s selected %2d, load %.2f, latency %.1f ms, serial %s%s@."
          (Transport.Address.to_string m.Dns.Replica_set.addr)
          m.Dns.Replica_set.selected m.Dns.Replica_set.load
          m.Dns.Replica_set.latency_ms
          (match m.Dns.Replica_set.serial with
          | None -> "-"
          | Some s -> Int32.to_string s)
          (if m.Dns.Replica_set.quarantined then " (quarantined)" else ""))
      member_rows;
    if slo then begin
      Obs.Slo.publish ();
      Format.printf "@.slo:@.";
      List.iter
        (fun s ->
          let w = Obs.Slo.window_summary s in
          Format.printf
            "  %-10s target %5.1f ms, objective %.3f: %d/%d breached, \
             compliance %.4f, budget %+.2f, burn %.2f@.  %10s window: n=%d \
             rate=%.2f/s p50=%.1f p99=%.1f p999=%.1f ms@."
            (Obs.Slo.name s) (Obs.Slo.target_ms s) (Obs.Slo.objective s)
            (Obs.Slo.breaches s) (Obs.Slo.total s) (Obs.Slo.compliance s)
            (Obs.Slo.budget_remaining s)
            (Obs.Slo.burn_rate s) "" w.Obs.Timeseries.n
            w.Obs.Timeseries.rate_per_s w.Obs.Timeseries.p50
            w.Obs.Timeseries.p99 w.Obs.Timeseries.p999)
        (Obs.Slo.all ())
    end;
    Option.iter (fun path -> Obs.Export.write_metrics_snapshot ~path ()) out;
    0
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run a scripted resolve workload and dump the full metrics registry.")
    Term.(const run $ json_arg $ out_arg $ neg_ttl_arg $ slo_arg)

(* --- qlog --- *)

let qlog_cmd =
  let slowest_arg =
    Arg.(
      value & opt int 10
      & info [ "slowest"; "n" ] ~docv:"N"
          ~doc:"Show the $(docv) slowest flight records (longest first).")
  in
  let outcome_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "outcome" ] ~docv:"OUTCOME"
          ~doc:
            "Only records with this outcome (hit, miss, coalesced, negative, \
             stale, failover, failed).")
  in
  let context_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "context" ] ~docv:"CONTEXT"
          ~doc:"Only records whose queried name lives in $(docv).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit one compact JSON object per record instead of the table.")
  in
  let run slowest outcome context json =
    let outcome_filter =
      match outcome with
      | None -> Ok None
      | Some s -> (
          match Obs.Qlog.outcome_of_string s with
          | Some o -> Ok (Some o)
          | None -> Error s)
    in
    match outcome_filter with
    | Error s ->
        Printf.eprintf "unknown outcome %S\n" s;
        1
    | Ok outcome_filter ->
        let scn = S.build () in
        let agent_scn = S.build ~bundle:true ~prefetch:true () in
        (* Scenario set-up is not part of the recorded workload. *)
        Obs.Span.clear ();
        Obs.Qlog.clear ();
        Obs.Slo.clear ();
        Obs.Span.enable ();
        Obs.Qlog.enable ();
        ignore (Obs.Slo.get_or_create "resolve");
        (* The scripted workload: a cold and a warm resolve per query
           class, one negative answer, and a 6-way cold burst through
           the shared agent for coalesced records. *)
        S.in_sim scn (fun () ->
            let hns = S.new_hns scn ~on:scn.client_stack in
            let name =
              Hns.Hns_name.make ~context:scn.bind_context ~name:scn.service_host
            in
            let resolve ?service query_class =
              match Hns.Nsm_intf.payload_ty_of query_class with
              | None -> ()
              | Some payload_ty ->
                  ignore
                    (Hns.Client.resolve hns ~query_class ~payload_ty ?service name)
            in
            resolve Hns.Query_class.host_address;
            resolve Hns.Query_class.host_address;
            resolve ~service:scn.service_name Hns.Query_class.hrpc_binding;
            ignore
              (Hns.Meta_client.lookup (Hns.Client.meta hns)
                 ~key:(Hns.Meta_schema.context_key "no-such-context")
                 ~ty:Hns.Meta_schema.string_ty));
        ignore (Experiments.agent_burst agent_scn ());
        Obs.Span.disable ();
        Obs.Qlog.disable ();
        let all = Obs.Qlog.records () in
        let records =
          match outcome_filter with
          | Some o -> Obs.Qlog.by_outcome o all
          | None -> all
        in
        let records =
          match context with
          | Some c -> Obs.Qlog.by_context c records
          | None -> records
        in
        let records = Obs.Qlog.slowest slowest records in
        if json then
          List.iter
            (fun r -> print_endline (Obs.Json.to_string (Obs.Qlog.record_json r)))
            records
        else begin
          Printf.printf "%d flight record(s) of %d retired:\n"
            (List.length records) (List.length all);
          Printf.printf "  %9s  %-9s  %7s  %-9s  %s\n" "dur" "outcome" "bytes"
            "trace" "name (class)";
          List.iter
            (fun r ->
              Printf.printf "  %7.1fms  %-9s  %6dB  %-9s  %s (%s)%s\n"
                (Obs.Qlog.duration_ms r)
                (Obs.Qlog.outcome_to_string r.Obs.Qlog.outcome)
                r.Obs.Qlog.bytes
                (if r.Obs.Qlog.trace = 0 then "-"
                 else Printf.sprintf "%08x" r.Obs.Qlog.trace)
                r.Obs.Qlog.name r.Obs.Qlog.query_class
                (if r.Obs.Qlog.linked_trace = 0 then ""
                 else Printf.sprintf " ~> leader %08x" r.Obs.Qlog.linked_trace))
            records;
          (* Tail exemplars: traces the SLO tracker retained because a
             query breached the objective or landed beyond the window
             p99; each resolves to its full span tree and records. *)
          match Obs.Slo.exemplar_traces () with
          | [] -> ()
          | traces ->
              Printf.printf "tail exemplars (%d retained):\n" (List.length traces);
              List.iter
                (fun tr ->
                  let spans =
                    List.length
                      (List.filter
                         (fun s -> s.Obs.Span.trace = tr)
                         (Obs.Span.finished ()))
                  in
                  let recs =
                    List.length
                      (List.filter
                         (fun r ->
                           r.Obs.Qlog.trace = tr || r.Obs.Qlog.linked_trace = tr)
                         all)
                  in
                  Printf.printf "  trace %08x: %d span(s), %d record(s)\n" tr
                    spans recs)
                traces
        end;
        0
  in
  Cmd.v
    (Cmd.info "qlog"
       ~doc:
         "Run a scripted workload with the query flight recorder on and dump \
          its records: per-query outcome, hop timings, wire bytes, servers \
          touched and trace ids, plus any retained tail exemplars.")
    Term.(const run $ slowest_arg $ outcome_arg $ context_arg $ json_arg)

(* --- lint --- *)

let lint_cmd =
  let run () =
    (* Every module-level metric registers at program start; a short
       workload flushes out the lazily registered ones too (per-NSM
       and per-query-class names), then the whole registry is checked
       against the layer.component.metric structure. Duplicate-kind
       registration fails fast at the registration site itself. *)
    ignore
      (with_scenario (fun scn hns ->
           let name =
             Hns.Hns_name.make ~context:scn.bind_context ~name:scn.service_host
           in
           List.iter
             (fun query_class ->
               match Hns.Nsm_intf.payload_ty_of query_class with
               | None -> ()
               | Some payload_ty ->
                   ignore
                     (Hns.Client.resolve hns ~query_class ~payload_ty
                        ~service:scn.service_name name))
             [
               Hns.Query_class.host_address;
               Hns.Query_class.hrpc_binding;
               Hns.Query_class.file_location;
               Hns.Query_class.mailbox_location;
             ];
           0));
    Obs.Slo.publish ();
    match Obs.Metrics.lint () with
    | [] ->
        Printf.printf "metric-name lint: %d names, all layer.component.metric\n"
          (List.length (Obs.Metrics.snapshot ()));
        0
    | problems ->
        List.iter (fun p -> Printf.eprintf "metric-name lint: %s\n" p) problems;
        1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Check every registered metric name (including SLO gauges and lazily \
          registered per-NSM names) against the layer.component.metric \
          structure.")
    Term.(const run $ const ())

(* --- chaos, load, fanout: the registry's experiments --- *)

(* Each runs as bench/main.exe runs it: the table, then any gate
   failures on stderr (exit 1). *)
let experiment ~n name = Experiments.run_one ~n (Option.get (Experiments.find name))

let experiment_cmd name ~doc =
  let run () = experiment ~n:Experiments.artifact_n name in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ const ())

(* The bench experiment is the canonical demo: crash the NSM host and
   fail over, crash the meta host and serve stale. *)
let chaos_cmd =
  experiment_cmd "chaos"
    ~doc:
      "Run the chaos availability experiment: scheduled host crashes with \
       failover across alternate NSMs and serve-stale degradation."

let load_cmd =
  let full_arg =
    Arg.(
      value & flag
      & info [ "full" ]
          ~doc:
            "Run the full bench suite (million-client configurations, \
             including the flash-crowd ranking A/B). Slower; the default is \
             the CI smoke pair.")
  in
  let run full =
    experiment ~n:(if full then Experiments.artifact_n else Experiments.smoke_n) "load"
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Drive the open-loop load harness: Poisson/diurnal arrivals over \
          agent fleets with cache churn, optional flash crowd and partition \
          storms, all on the virtual clock. Fails if a run exceeds its \
          sim-event budget.")
    Term.(const run $ full_arg)

let fanout_cmd =
  experiment_cmd "fanout"
    ~doc:
      "Drive the meta-store fan-out harness: context-delegated partitions, \
       IXFR-chained replica trees and load-aware routed reads, swept across \
       replica counts against the single-primary baseline, plus the \
       read-your-writes A/B. Fails on a failed read, a run over its \
       sim-event budget or a stale pinned read."

(* --- store --- *)

let store_cmd =
  let run () =
    (* The durability experiment is the canonical workload: the WAL
       spill path under concurrent updates, compaction, crash
       recovery, and the restart A/B. Then dump what the store layers
       recorded about themselves. *)
    Experiments.durability ();
    let interesting name =
      List.exists
        (fun prefix -> String.length name >= String.length prefix
                       && String.sub name 0 (String.length prefix) = prefix)
        [ "store."; "dns.durable."; "dns.journal." ]
    in
    Printf.printf "\n  meta-store instruments:\n";
    List.iter
      (fun (name, sample) ->
        if interesting name then
          match (sample : Obs.Metrics.sample) with
          | Obs.Metrics.Count n -> Printf.printf "    %-32s %d\n" name n
          | Obs.Metrics.Level v -> Printf.printf "    %-32s %.1f\n" name v
          | Obs.Metrics.Summary { n; mean; p95; max; _ } ->
              Printf.printf "    %-32s n=%d mean=%.2f p95=%.2f max=%.2f\n"
                name n mean p95 max)
      (Obs.Metrics.snapshot ());
    0
  in
  Cmd.v
    (Cmd.info "store"
       ~doc:
         "Run the durable meta-store workload (WAL group commit, compaction, \
          crash recovery, restart A/B) and print the store.* / dns.durable.* \
          / dns.journal.* instruments it left behind.")
    Term.(const run $ const ())

(* --- network services --- *)

let with_services f =
  let scn = S.build () in
  S.in_sim scn (fun () ->
      let _installed = Services.Setup.install scn in
      let hns = S.new_hns scn ~on:scn.client_stack in
      f scn hns)

let fetch_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "File to fetch: a bare name uses the Unix file area; context!name \
             goes wherever the context says (try parc-ch!notes).")
  in
  let run file =
    with_services (fun scn hns ->
        let name =
          if String.contains file '!' then Hns.Hns_name.of_string file
          else Services.Setup.unix_file_name scn file
        in
        let filing = Services.Filing.create hns in
        match Services.Filing.fetch filing name with
        | Ok data ->
            Printf.printf "%s (%d bytes):\n%s\n" (Hns.Hns_name.to_string name)
              (String.length data) data;
            0
        | Error e ->
            Printf.printf "fetch failed: %s\n" (Format.asprintf "%a" Services.Access.pp_error e);
            1)
  in
  Cmd.v
    (Cmd.info "fetch" ~doc:"Fetch a file through the heterogeneous filing service.")
    Term.(const run $ file_arg)

let send_mail_cmd =
  let user_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"USER" ~doc:"Recipient (alice, bob, carol, dave).")
  in
  let body_arg =
    Arg.(
      value & opt string "hello from hns_cli"
      & info [ "body"; "b" ] ~docv:"TEXT" ~doc:"Message body.")
  in
  let run user body =
    with_services (fun scn hns ->
        let mail = Services.Mail.create hns ~from:"operator@hns-cli" in
        match
          Services.Mail.send mail ~recipient:(Services.Setup.user_name scn user)
            ~subject:"cli" ~body
        with
        | Ok site ->
            Printf.printf "delivered to %s's mailbox at %s\n" user site.Hns.Hns_name.name;
            0
        | Error e ->
            Printf.printf "send failed: %s\n" (Format.asprintf "%a" Services.Access.pp_error e);
            1)
  in
  Cmd.v
    (Cmd.info "send-mail" ~doc:"Deliver a message through the HCS mail service.")
    Term.(const run $ user_arg $ body_arg)

let rexec_cmd =
  let host_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"HOST" ~doc:"Short host name (samoa, vanuatu).")
  in
  let command_arg =
    Arg.(
      required & pos 1 (some string) None
      & info [] ~docv:"COMMAND" ~doc:"Command (hostname, date, echo, compile).")
  in
  let args_arg =
    Arg.(value & pos_right 1 string [] & info [] ~docv:"ARGS" ~doc:"Arguments.")
  in
  let run host command args =
    with_services (fun scn hns ->
        let rexec = Services.Rexec.create hns in
        let host_name =
          Hns.Hns_name.make ~context:scn.bind_context
            ~name:(Printf.sprintf "%s.%s" host scn.zone)
        in
        match Services.Rexec.run rexec ~host:host_name ~command ~args with
        | Ok o ->
            Printf.printf "[exit %d] %s\n" o.Services.Rexec_server.status
              o.Services.Rexec_server.output;
            if o.Services.Rexec_server.status = 0 then 0 else o.Services.Rexec_server.status
        | Error e ->
            Printf.printf "rexec failed: %s\n" (Format.asprintf "%a" Services.Access.pp_error e);
            1)
  in
  Cmd.v
    (Cmd.info "rexec" ~doc:"Run a command on a remote host via the HCS rexec service.")
    Term.(const run $ host_arg $ command_arg $ args_arg)

let () =
  let info =
    Cmd.info "hns_cli" ~version:"1.0.0"
      ~doc:"Interact with the simulated HCS Name Service (SOSP 1987 reproduction)."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            resolve_cmd;
            import_cmd;
            meta_dump_cmd;
            contexts_cmd;
            preload_cmd;
            trace_cmd;
            stats_cmd;
            qlog_cmd;
            lint_cmd;
            chaos_cmd;
            store_cmd;
            fetch_cmd;
            send_mail_cmd;
            rexec_cmd;
            load_cmd;
            fanout_cmd;
          ]))
