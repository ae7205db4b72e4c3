type t = {
  engine : Sim.Engine.t;
  topo : Sim.Topology.t;
  net : Transport.Netstack.t;
  client_stack : Transport.Netstack.stack;
  agent_stack : Transport.Netstack.stack;
  nsm_stack : Transport.Netstack.stack;
  meta_stack : Transport.Netstack.stack;
  bind_stack : Transport.Netstack.stack;
  ch_stack : Transport.Netstack.stack;
  service_stack : Transport.Netstack.stack;
  meta_bind : Dns.Server.t;
  meta_zone : Dns.Zone.t;
  meta_replica_servers : Dns.Server.t list;
  public_bind : Dns.Server.t;
  public_zone : Dns.Zone.t;
  ch : Clearinghouse.Ch_server.t;
  portmap : Rpc.Portmap.t;
  credentials : Clearinghouse.Ch_proto.credentials;
  zone : string;
  bind_context : string;
  ch_context : string;
  service_name : string;
  service_host : string;
  target_prog : int;
  target_vers : int;
  expected_sun_binding : Hrpc.Binding.t;
  courier_service_name : string;
  expected_courier_binding : Hrpc.Binding.t;
  ch_domain : string;
  ch_org : string;
  nsm_binding_bind : string;
  nsm_hostaddr_bind : string;
  nsm_binding_ch : string;
  nsm_hostaddr_ch : string;
  remote_binding_nsm_bind : Nsm.Binding_nsm_bind.t;
  remote_hostaddr_nsm_bind : Nsm.Hostaddr_nsm_bind.t;
  remote_binding_nsm_ch : Nsm.Binding_nsm_ch.t;
  remote_hostaddr_nsm_ch : Nsm.Hostaddr_nsm_ch.t;
  localfile : Baseline.Localfile.t;
  rereg : Baseline.Rereg_ch.t;
  cache_mode : Hns.Cache.mode;
  bundle_enabled : bool;
  hand_codec_enabled : bool;
  alt_service_names : string list;
}

let in_sim_engine engine f =
  let result = ref None in
  Sim.Engine.spawn engine ~name:"experiment" (fun () -> result := Some (f ()));
  Sim.Engine.run engine;
  match !result with
  | Some v -> v
  | None -> failwith "Scenario.in_sim: experiment process did not complete"

let in_sim t f = in_sim_engine t.engine f

let timed f =
  let t0 = Sim.Engine.time () in
  let v = f () in
  (v, Sim.Engine.time () -. t0)

let new_cache_mode ?staleness_budget_ms ?hand_cost mode () =
  Hns.Cache.create ~mode ~generated_cost:Calib.generated_cost ?hand_cost
    ~hit_overhead_ms:Calib.cache_hit_overhead_ms
    ~hit_per_node_ms:Calib.cache_hit_per_node_ms
    ~insert_overhead_ms:Calib.cache_insert_ms ?staleness_budget_ms ()

let new_nsm_cache_mode mode () =
  Hns.Cache.create ~mode ~generated_cost:Calib.generated_cost
    ~hit_overhead_ms:Calib.nsm_cache_hit_overhead_ms
    ~hit_per_node_ms:Calib.cache_hit_per_node_ms
    ~insert_overhead_ms:Calib.cache_insert_ms ()

let new_cache t () = new_cache_mode t.cache_mode ()
let new_nsm_cache t () = new_nsm_cache_mode t.cache_mode ()

let meta_addr t = Dns.Server.addr t.meta_bind
let bind_addr t = Dns.Server.addr t.public_bind
let ch_addr t = Clearinghouse.Ch_server.addr t.ch

(* Start the replica fleet and chain it under the meta primary: each
   replica pulls the meta zone by IXFR and gets NOTIFYed on every
   serial advance. Must run in-sim (the initial transfer is
   synchronous). Detach every returned secondary before the driving
   window closes, or the poll backstops keep the engine from ever
   draining. *)
let attach_meta_replicas t =
  List.map
    (fun srv ->
      Dns.Server.start srv;
      let sec =
        Dns.Secondary.attach srv ~primary:(meta_addr t)
          ~zone:Hns.Meta_schema.zone_origin ~refresh_ms:60_000.0
          ~mode:Dns.Secondary.Ixfr ()
      in
      Dns.Server.register_notify t.meta_bind (Dns.Server.addr srv);
      sec)
    t.meta_replica_servers

let detach_meta_replicas t secs =
  List.iter Dns.Secondary.detach secs;
  List.iter
    (fun srv -> Dns.Server.unregister_notify t.meta_bind (Dns.Server.addr srv))
    t.meta_replica_servers

(* Per-client routing view over the replica fleet; [None] when the
   scenario runs unreplicated, so plumbing it through is always safe. *)
let new_replica_set t ~on =
  match t.meta_replica_servers with
  | [] -> None
  | servers ->
      Some
        (Dns.Replica_set.create on ~zone:Hns.Meta_schema.zone_origin
           ~primary:(meta_addr t)
           ~replicas:(List.map Dns.Server.addr servers))

let new_hns_raw ?staleness_budget_ms ?rpc_policy ?enable_bundle ?negative_ttl_ms
    ?nsm_cache_ttl_ms ?(hand_codec = false) ?replica_set ~cache_mode
    ~meta_server ~bind_server ~ch_server ~credentials ~ch_domain ~ch_org
    ~nsm_hostaddr_bind ~nsm_hostaddr_ch ~on () =
  (* When the hand codec is on, both the client (request/record codecs)
     and its cache (stored-form demarshalling) get the calibrated hand
     cost model; Generic_marshal stays the fallback for cold shapes. *)
  let hand_cost = if hand_codec then Some Calib.hand_cost else None in
  let cache = new_cache_mode ?staleness_budget_ms ?hand_cost cache_mode () in
  let hns =
    Hns.Client.create on ~meta_server ?replica_set ~cache
      ~generated_cost:Calib.generated_cost
      ?hand_codec:hand_cost
      ?hand_preload_record_ms:
        (if hand_codec then Some Calib.hand_preload_record_ms else None)
      ~preload_record_ms:Calib.preload_record_ms
      ~mapping_overhead_ms:Calib.hns_mapping_overhead_ms ?enable_bundle
      ?negative_ttl_ms ?rpc_policy ()
  in
  let ha_bind =
    Nsm.Hostaddr_nsm_bind.create on ~bind_server
      ~cache:(new_nsm_cache_mode cache_mode ())
      ?cache_ttl_ms:nsm_cache_ttl_ms ~per_query_ms:Calib.nsm_per_query_ms ()
  in
  let ha_ch =
    Nsm.Hostaddr_nsm_ch.create on ~ch_server ~credentials ~domain:ch_domain
      ~org:ch_org
      ~cache:(new_nsm_cache_mode cache_mode ())
      ?cache_ttl_ms:nsm_cache_ttl_ms ~per_query_ms:Calib.nsm_per_query_ms ()
  in
  Hns.Client.link_hostaddr_nsm hns ~name:nsm_hostaddr_bind
    (Nsm.Hostaddr_nsm_bind.impl ha_bind);
  Hns.Client.link_hostaddr_nsm hns ~name:nsm_hostaddr_ch
    (Nsm.Hostaddr_nsm_ch.impl ha_ch);
  hns

let new_hns ?staleness_budget_ms ?rpc_policy ?enable_bundle ?negative_ttl_ms
    ?nsm_cache_ttl_ms ?cache_mode ?hand_codec t ~on =
  (* The scenario's bundle setting is the default: a bundle-enabled
     testbed hands out bundle-enabled clients unless overridden.
     Same deal for the hand codec. *)
  let enable_bundle =
    match enable_bundle with Some b -> b | None -> t.bundle_enabled
  in
  let hand_codec =
    match hand_codec with Some h -> h | None -> t.hand_codec_enabled
  in
  let cache_mode = Option.value ~default:t.cache_mode cache_mode in
  new_hns_raw ?staleness_budget_ms ?rpc_policy ~enable_bundle ?negative_ttl_ms
    ?nsm_cache_ttl_ms ~hand_codec
    ?replica_set:(new_replica_set t ~on)
    ~cache_mode ~meta_server:(meta_addr t)
    ~bind_server:(bind_addr t) ~ch_server:(ch_addr t)
    ~credentials:t.credentials ~ch_domain:t.ch_domain ~ch_org:t.ch_org
    ~nsm_hostaddr_bind:t.nsm_hostaddr_bind ~nsm_hostaddr_ch:t.nsm_hostaddr_ch ~on
    ()

(* Every service name the binding NSM should answer for: the canonical
   import target plus the varied-length alternates (used by the bench
   harness to de-degenerate per-iteration samples). All map to the
   same Sun RPC program. *)
let service_directory ~service_name ~alt_service_names ~target_prog ~target_vers
    =
  (service_name, (target_prog, target_vers))
  :: List.map (fun s -> (s, (target_prog, target_vers))) alt_service_names

(* [alternates] (default off) also serves the varied-length alternate
   service names — the import bench turns it on; the default keeps the
   canonical single-service NSM (e.g. for preload warm counts). *)
let new_binding_nsm_bind ?(alternates = false) t ~on =
  let services =
    if alternates then
      service_directory ~service_name:t.service_name
        ~alt_service_names:t.alt_service_names ~target_prog:t.target_prog
        ~target_vers:t.target_vers
    else [ (t.service_name, (t.target_prog, t.target_vers)) ]
  in
  Nsm.Binding_nsm_bind.create on ~bind_server:(bind_addr t) ~services
    ~cache:(new_nsm_cache t ()) ~per_query_ms:Calib.nsm_per_query_ms ()

let new_binding_nsm_ch t ~on =
  Nsm.Binding_nsm_ch.create on ~ch_server:(ch_addr t) ~credentials:t.credentials
    ~domain:t.ch_domain ~org:t.ch_org ~cache:(new_nsm_cache t ())
    ~per_query_ms:Calib.nsm_per_query_ms ()

let build ?(cache_mode = Hns.Cache.Marshalled) ?(extra_hosts = 16)
    ?(bundle = false) ?(hand_codec = false) ?(prefetch = false) ?hot_ranking
    ?(prefetch_k = 8) ?nsm_cache_ttl_ms ?(meta_replicas = 0) () =
  let engine = Sim.Engine.create () in
  let topo =
    Sim.Topology.create ~default_latency_ms:Calib.ethernet_latency_ms
      ~default_per_byte_ms:Calib.ethernet_per_byte_ms ~loopback_ms:Calib.loopback_ms
      ()
  in
  let net = Transport.Netstack.create engine topo in
  let attach name = Transport.Netstack.attach net (Sim.Topology.add_host topo name) in
  let client_stack = attach "tonga" in
  let agent_stack = attach "rarotonga" in
  let nsm_stack = attach "niue" in
  let meta_stack = attach "fiji" in
  let bind_stack = attach "samoa" in
  let ch_stack = attach "dandelion" in
  let service_stack = attach "vanuatu" in
  let zone = "cs.washington.edu" in
  let host_of stack =
    Printf.sprintf "%s.%s" (Transport.Netstack.host stack).Sim.Topology.hostname zone
  in
  let bind_context = "uw-cs" in
  let ch_context = "parc-ch" in
  let ch_domain = "parc" and ch_org = "xerox" in
  let credentials =
    { Clearinghouse.Ch_proto.user = Clearinghouse.Ch_name.make ~local:"hcs" ~domain:ch_domain ~org:ch_org;
      password = "hcs-secret" }
  in
  let service_name = "DesiredService" in
  (* Alternate importable services with deliberately varied name
     lengths ("s0", "ss1", ..., "ssssssss7"): same target program,
     different request sizes, so repeated bench iterations produce
     distinct (honest) latencies instead of eight identical samples. *)
  let alt_service_names =
    List.init 8 (fun i -> Printf.sprintf "%s%d" (String.make (i + 1) 's') i)
  in
  let courier_service_name = "printsrv" in
  let target_prog = 200001 and target_vers = 1 in
  let target_port = 2049 in
  let courier_prog = 7001 and courier_vers = 1 in
  let courier_port = 741 in
  let expected_sun_binding =
    Hrpc.Binding.make ~suite:Hrpc.Component.sunrpc_suite
      ~server:(Transport.Address.make (Transport.Netstack.ip service_stack) target_port)
      ~prog:target_prog ~vers:target_vers
  in
  let expected_courier_binding =
    Hrpc.Binding.make ~suite:Hrpc.Component.courier_suite
      ~server:(Transport.Address.make (Transport.Netstack.ip ch_stack) courier_port)
      ~prog:courier_prog ~vers:courier_vers
  in
  let nsm_binding_bind = "b-bind" in
  let nsm_hostaddr_bind = "ha-bind" in
  let nsm_binding_ch = "b-ch" in
  let nsm_hostaddr_ch = "ha-ch" in
  (* --- the public zone: every testbed host plus synthetic ones. *)
  let a_record stack =
    Dns.Rr.make
      (Dns.Name.of_string (host_of stack))
      (Dns.Rr.A (Transport.Netstack.ip stack))
  in
  let synthetic =
    List.concat
      (List.mapi
         (fun i host ->
           let name = Dns.Name.of_string host in
           [
             Dns.Rr.make name (Dns.Rr.A (Int32.of_int (0x0A000900 + i)));
             Dns.Rr.make name
               (Dns.Rr.Txt [ Printf.sprintf "filesrv=%s;vol=%d" host (i mod 4) ]);
           ])
         (Namegen.hosts ~count:extra_hosts ~zone))
  in
  let mail_records =
    List.map
      (fun user ->
        Dns.Rr.make
          (Dns.Name.of_string (Printf.sprintf "%s.users.%s" user zone))
          (Dns.Rr.Txt [ Printf.sprintf "mailbox=%s" (host_of bind_stack) ]))
      [ "alice"; "bob"; "carol" ]
  in
  let public_zone =
    Dns.Zone.simple ~origin:(Dns.Name.of_string zone)
      ([
         a_record client_stack;
         a_record agent_stack;
         a_record nsm_stack;
         a_record meta_stack;
         a_record bind_stack;
         a_record service_stack;
       ]
      @ synthetic @ mail_records)
  in
  let meta_bind =
    Dns.Server.create meta_stack ~port:Transport.Address.Well_known.hns_meta
      ~service_overhead_ms:Calib.meta_bind_service_overhead_ms
      ~per_answer_ms:Calib.bind_per_answer_ms ~allow_update:true ()
  in
  let meta_zone = Dns.Zone.simple ~origin:Hns.Meta_schema.zone_origin [] in
  Dns.Server.add_zone meta_bind meta_zone;
  let public_bind =
    Dns.Server.create bind_stack ~service_overhead_ms:Calib.bind_service_overhead_ms
      ~per_answer_ms:Calib.bind_per_answer_ms ?hot_ranking ()
  in
  Dns.Server.add_zone public_bind public_zone;
  (* A bundle-aware testbed: the modified BIND answers batched FindNSM
     queries; stock scenarios leave it off and clients fall back.
     [prefetch] additionally piggybacks the hottest host addresses on
     each bundle — the hot set is whatever the public BIND has been
     answering A queries for (every hostaddr NSM in the confederation
     funnels through it), and addresses come from the public zone. *)
  let prefetch_cfg =
    if not (bundle && prefetch) then None
    else
      Some
        {
          Hns.Meta_bundle.k = prefetch_k;
          contexts = [ bind_context ];
          (* Per-context ranking: the requesting context's group is its
             zone — everything the uw-cs confederation asks the public
             BIND for lands in the [cs.washington.edu.] group, so a
             crowd in another context's zone cannot pollute these
             hints. *)
          hot =
            (fun ~context ->
              let group =
                if String.equal context bind_context then
                  Dns.Name.to_string (Dns.Zone.origin public_zone)
                else ""
              in
              Dns.Server.hot_ranked public_bind ~group ~k:(prefetch_k + 4) ());
          addr_of =
            (fun name ->
              match Dns.Db.lookup (Dns.Zone.db public_zone) name Dns.Rr.T_a with
              | { Dns.Rr.rdata = Dns.Rr.A ip; _ } :: _ -> Some ip
              | _ -> None);
          ttl_s = 120l;
          (* Hint keep-alive: serving a hint suppresses the very
             sightings that earned it (agents answer from cache), so
             re-note it with the hint row's TTL — otherwise un-hinted
             names, which still fault through the servers once per
             agent per refresh cycle, would always outrank the hinted
             steady set. *)
          note =
            Some
              (fun ~context:_ name ->
                Dns.Server.note_hot_name public_bind ~ttl_ms:120_000.0 name);
        }
  in
  if bundle then Hns.Meta_bundle.install ?prefetch:prefetch_cfg meta_bind;
  (* Meta-zone replica fleet: plain servers on the well-known meta port
     (referral glue carries only IPs), each bundle-aware when the
     primary is — a replica answering bundle probes with NXDOMAIN would
     memoize "no bundle support" into every routed client. They serve
     nothing until {!attach_meta_replicas} wires them up in-sim. *)
  let meta_replica_servers =
    List.init meta_replicas (fun i ->
        let srv =
          Dns.Server.create
            (attach (Printf.sprintf "fiji-r%d" i))
            ~port:Transport.Address.Well_known.hns_meta
            ~service_overhead_ms:Calib.meta_bind_service_overhead_ms
            ~per_answer_ms:Calib.bind_per_answer_ms ()
        in
        if bundle then Hns.Meta_bundle.install ?prefetch:prefetch_cfg srv;
        srv)
  in
  let ch =
    Clearinghouse.Ch_server.create ch_stack ~auth_ms:Calib.ch_auth_ms
      ~disk_ms:Calib.ch_disk_ms ()
  in
  Clearinghouse.Ch_server.add_user ch credentials.Clearinghouse.Ch_proto.user
    ~password:credentials.Clearinghouse.Ch_proto.password;
  (* CH data: host objects with addresses, plus the Courier service. *)
  let ch_db = Clearinghouse.Ch_server.db ch in
  Clearinghouse.Ch_db.store ch_db
    (Clearinghouse.Ch_name.make ~local:"dandelion" ~domain:ch_domain ~org:ch_org)
    (Clearinghouse.Property.item Clearinghouse.Property.Id.address
       (Nsm.Hostaddr_nsm_ch.encode_address (Transport.Netstack.ip ch_stack)));
  Clearinghouse.Ch_db.store ch_db
    (Clearinghouse.Ch_name.make ~local:courier_service_name ~domain:ch_domain
       ~org:ch_org)
    (Clearinghouse.Property.item Clearinghouse.Property.Id.service_binding
       (Hrpc.Binding.to_bytes expected_courier_binding));
  List.iter
    (fun local ->
      Clearinghouse.Ch_db.store ch_db
        (Clearinghouse.Ch_name.make ~local ~domain:ch_domain ~org:ch_org)
        (Clearinghouse.Property.item Clearinghouse.Property.Id.description
           ("object " ^ local)))
    (Namegen.ch_objects ~count:8 ~prefix:"obj");
  (* Remote NSM instances (served from the NSM host). *)
  let mk_remote_nsm_caches () = new_nsm_cache_mode cache_mode () in
  let remote_binding_nsm_bind =
    Nsm.Binding_nsm_bind.create nsm_stack ~bind_server:(Dns.Server.addr public_bind)
      ~services:
        (service_directory ~service_name ~alt_service_names ~target_prog
           ~target_vers)
      ~cache:(mk_remote_nsm_caches ()) ~per_query_ms:Calib.nsm_per_query_ms ()
  in
  let remote_hostaddr_nsm_bind =
    Nsm.Hostaddr_nsm_bind.create nsm_stack ~bind_server:(Dns.Server.addr public_bind)
      ~cache:(mk_remote_nsm_caches ()) ?cache_ttl_ms:nsm_cache_ttl_ms
      ~per_query_ms:Calib.nsm_per_query_ms ()
  in
  let remote_binding_nsm_ch =
    Nsm.Binding_nsm_ch.create nsm_stack ~ch_server:(Clearinghouse.Ch_server.addr ch)
      ~credentials ~domain:ch_domain ~org:ch_org ~cache:(mk_remote_nsm_caches ())
      ~per_query_ms:Calib.nsm_per_query_ms ()
  in
  let remote_hostaddr_nsm_ch =
    Nsm.Hostaddr_nsm_ch.create nsm_stack ~ch_server:(Clearinghouse.Ch_server.addr ch)
      ~credentials ~domain:ch_domain ~org:ch_org ~cache:(mk_remote_nsm_caches ())
      ~per_query_ms:Calib.nsm_per_query_ms ()
  in
  (* Baselines. *)
  let localfile =
    Baseline.Localfile.create ~file_read_ms:Calib.localfile_read_ms
      ~parse_per_entry_ms:Calib.localfile_parse_per_entry_ms ()
  in
  let filler_binding i =
    Hrpc.Binding.make ~suite:Hrpc.Component.sunrpc_suite
      ~server:(Transport.Address.make (Int32.of_int (0x0A000900 + i)) (4000 + i))
      ~prog:(300000 + i) ~vers:1
  in
  Baseline.Localfile.replace_all localfile
    ((service_name, host_of service_stack, expected_sun_binding)
    :: List.init (Calib.localfile_population - 1) (fun i ->
           (Printf.sprintf "filler%02d" i, Printf.sprintf "host%02d.%s" i zone,
            filler_binding i)));
  let rereg =
    Baseline.Rereg_ch.create client_stack ~ch_server:(Clearinghouse.Ch_server.addr ch)
      ~credentials ~domain:ch_domain ~org:ch_org ()
  in
  (* --- run the servers up and perform registrations. *)
  let portmap_ref = ref None in
  in_sim_engine engine (fun () ->
      Dns.Server.start meta_bind;
      Dns.Server.start public_bind;
      Clearinghouse.Ch_server.start ch;
      (* Target Sun RPC service and its host's portmapper. *)
      let portmap =
        Rpc.Portmap.start ~service_overhead_ms:Calib.portmapper_service_overhead_ms
          service_stack
      in
      Rpc.Portmap.set portmap ~prog:target_prog ~vers:target_vers
        ~protocol:Rpc.Portmap.P_udp ~port:target_port;
      let target = Rpc.Sunrpc.create service_stack ~port:target_port () in
      let echo_sign = Wire.Idl.signature ~arg:Wire.Idl.T_string ~res:Wire.Idl.T_string in
      Rpc.Sunrpc.register target ~prog:target_prog ~vers:target_vers ~procnum:1
        ~sign:echo_sign (fun v -> v);
      Rpc.Sunrpc.start target;
      (* The Courier target on the Xerox host. *)
      let courier_target =
        Rpc.Courier_rpc.create ch_stack ~port:courier_port ()
      in
      Rpc.Courier_rpc.register courier_target ~prog:courier_prog ~vers:courier_vers
        ~procnum:1 ~sign:echo_sign (fun v -> v);
      Rpc.Courier_rpc.start courier_target;
      (* Remote NSM servers. *)
      let serve_bnsm =
        Nsm.Binding_nsm_bind.serve remote_binding_nsm_bind
          ~prog:Hns.Nsm_intf.nsm_prog_base
          ~service_overhead_ms:Calib.nsm_service_overhead_ms ()
      in
      Hrpc.Server.start serve_bnsm;
      let serve_hansm =
        Nsm.Hostaddr_nsm_bind.serve remote_hostaddr_nsm_bind
          ~prog:(Hns.Nsm_intf.nsm_prog_base + 1)
          ~service_overhead_ms:Calib.nsm_service_overhead_ms ()
      in
      Hrpc.Server.start serve_hansm;
      let serve_bnsm_ch =
        Nsm.Binding_nsm_ch.serve remote_binding_nsm_ch
          ~prog:(Hns.Nsm_intf.nsm_prog_base + 2)
          ~service_overhead_ms:Calib.nsm_service_overhead_ms ()
      in
      Hrpc.Server.start serve_bnsm_ch;
      let serve_hansm_ch =
        Nsm.Hostaddr_nsm_ch.serve remote_hostaddr_nsm_ch
          ~prog:(Hns.Nsm_intf.nsm_prog_base + 3)
          ~service_overhead_ms:Calib.nsm_service_overhead_ms ()
      in
      Hrpc.Server.start serve_hansm_ch;
      (* Meta-naming registrations, via an administrative meta client
         colocated with the meta server. *)
      let admin_cache = Hns.Cache.create ~mode:Hns.Cache.Demarshalled () in
      let meta =
        Hns.Meta_client.create meta_stack ~meta_server:(Dns.Server.addr meta_bind)
          ~cache:admin_cache ()
      in
      let nsm_host = host_of nsm_stack in
      let reg what = function
        | Ok () -> ignore what
        | Error e ->
            failwith (Printf.sprintf "setup: %s failed: %s" what (Hns.Errors.to_string e))
      in
      reg "ns UW-BIND"
        (Hns.Admin.register_name_service meta ~name:"UW-BIND"
           {
             Hns.Meta_schema.ns_type = "bind";
             ns_host = host_of bind_stack;
             ns_host_context = bind_context;
             ns_port = 53;
           });
      reg "ns PARC-CH"
        (Hns.Admin.register_name_service meta ~name:"PARC-CH"
           {
             Hns.Meta_schema.ns_type = "clearinghouse";
             ns_host = "dandelion";
             ns_host_context = ch_context;
             ns_port = Transport.Address.Well_known.clearinghouse;
           });
      reg "context uw-cs"
        (Hns.Admin.register_context meta ~context:bind_context ~ns:"UW-BIND");
      reg "context parc-ch"
        (Hns.Admin.register_context meta ~context:ch_context ~ns:"PARC-CH");
      let reg_nsm name ns query_class server =
        reg
          (Printf.sprintf "nsm %s" name)
          (Hns.Admin.register_nsm_server meta ~name ~ns ~query_class ~host:nsm_host
             ~host_context:bind_context
             (Hrpc.Server.binding server))
      in
      reg_nsm nsm_binding_bind "UW-BIND" Hns.Query_class.hrpc_binding serve_bnsm;
      reg_nsm nsm_hostaddr_bind "UW-BIND" Hns.Query_class.host_address serve_hansm;
      reg_nsm nsm_binding_ch "PARC-CH" Hns.Query_class.hrpc_binding serve_bnsm_ch;
      reg_nsm nsm_hostaddr_ch "PARC-CH" Hns.Query_class.host_address serve_hansm_ch;
      (* FileLocation and MailboxLocation NSMs over BIND. *)
      let file_nsm =
        Nsm.File_nsm.create_bind nsm_stack ~bind_server:(Dns.Server.addr public_bind)
          ~cache:(mk_remote_nsm_caches ()) ~per_query_ms:Calib.nsm_per_query_ms ()
      in
      let serve_file =
        Nsm.Text_nsm.serve file_nsm
          ~prog:(Hns.Nsm_intf.nsm_prog_base + 4)
          ~service_overhead_ms:Calib.nsm_service_overhead_ms ()
      in
      Hrpc.Server.start serve_file;
      reg_nsm "file-bind" "UW-BIND" Hns.Query_class.file_location serve_file;
      let mail_nsm =
        Nsm.Mail_nsm.create_bind nsm_stack ~bind_server:(Dns.Server.addr public_bind)
          ~cache:(mk_remote_nsm_caches ()) ~per_query_ms:Calib.nsm_per_query_ms ()
      in
      let serve_mail =
        Nsm.Text_nsm.serve mail_nsm
          ~prog:(Hns.Nsm_intf.nsm_prog_base + 5)
          ~service_overhead_ms:Calib.nsm_service_overhead_ms ()
      in
      Hrpc.Server.start serve_mail;
      reg_nsm "mail-bind" "UW-BIND" Hns.Query_class.mailbox_location serve_mail;
      (* Reregistration baseline data. *)
      (match
         Baseline.Rereg_ch.register rereg ~service:service_name expected_sun_binding
       with
      | Ok () -> ()
      | Error e ->
          failwith
            (Format.asprintf "setup: rereg register failed: %a" Baseline.Rereg_ch.pp_error
               e));
      (portmap_ref := Some portmap));
  let portmap = match !portmap_ref with Some p -> p | None -> assert false in
  {
    engine;
    topo;
    net;
    client_stack;
    agent_stack;
    nsm_stack;
    meta_stack;
    bind_stack;
    ch_stack;
    service_stack;
    meta_bind;
    meta_zone;
    meta_replica_servers;
    public_bind;
    public_zone;
    ch;
    portmap;
    credentials;
    zone;
    bind_context;
    ch_context;
    service_name;
    service_host = host_of service_stack;
    target_prog;
    target_vers;
    expected_sun_binding;
    courier_service_name;
    expected_courier_binding;
    ch_domain;
    ch_org;
    nsm_binding_bind;
    nsm_hostaddr_bind;
    nsm_binding_ch;
    nsm_hostaddr_ch;
    remote_binding_nsm_bind;
    remote_hostaddr_nsm_bind;
    remote_binding_nsm_ch;
    remote_hostaddr_nsm_ch;
    localfile;
    rereg;
    cache_mode;
    bundle_enabled = bundle;
    hand_codec_enabled = hand_codec;
    alt_service_names;
  }

type parties = {
  env : Hns.Import.env;
  hns : Hns.Client.t;
  hns_cache : Hns.Cache.t;
  nsm_bind : Nsm.Binding_nsm_bind.t;
  nsm_cache : Hns.Cache.t;
  agent : Hns.Agent.t option;
}

let arrange t arrangement =
  match (arrangement : Hns.Import.arrangement) with
  | Hns.Import.All_linked ->
      let hns = new_hns t ~on:t.client_stack in
      let nsm = new_binding_nsm_bind ~alternates:true t ~on:t.client_stack in
      {
        env =
          Hns.Import.env ~stack:t.client_stack ~local_hns:hns
            ~linked_nsms:[ (t.nsm_binding_bind, Nsm.Binding_nsm_bind.impl nsm) ]
            ();
        hns;
        hns_cache = Hns.Client.cache hns;
        nsm_bind = nsm;
        nsm_cache = Nsm.Binding_nsm_bind.cache nsm;
        agent = None;
      }
  | Hns.Import.Combined_agent ->
      let hns = new_hns t ~on:t.agent_stack in
      let nsm = new_binding_nsm_bind ~alternates:true t ~on:t.agent_stack in
      let agent =
        Hns.Agent.create hns
          ~linked_nsms:[ (t.nsm_binding_bind, Nsm.Binding_nsm_bind.impl nsm) ]
          ~service_overhead_ms:Calib.agent_service_overhead_ms ()
      in
      Hns.Agent.start agent;
      {
        env = Hns.Import.env ~stack:t.client_stack ~agent:(Hns.Agent.binding agent) ();
        hns;
        hns_cache = Hns.Client.cache hns;
        nsm_bind = nsm;
        nsm_cache = Nsm.Binding_nsm_bind.cache nsm;
        agent = Some agent;
      }
  | Hns.Import.Remote_hns ->
      let hns = new_hns t ~on:t.agent_stack in
      let agent =
        Hns.Agent.create hns ~service_overhead_ms:Calib.agent_service_overhead_ms ()
      in
      Hns.Agent.start agent;
      let nsm = new_binding_nsm_bind ~alternates:true t ~on:t.client_stack in
      {
        env =
          Hns.Import.env ~stack:t.client_stack ~agent:(Hns.Agent.binding agent)
            ~linked_nsms:[ (t.nsm_binding_bind, Nsm.Binding_nsm_bind.impl nsm) ]
            ();
        hns;
        hns_cache = Hns.Client.cache hns;
        nsm_bind = nsm;
        nsm_cache = Nsm.Binding_nsm_bind.cache nsm;
        agent = Some agent;
      }
  | Hns.Import.Remote_nsms ->
      let hns = new_hns t ~on:t.client_stack in
      {
        env = Hns.Import.env ~stack:t.client_stack ~local_hns:hns ();
        hns;
        hns_cache = Hns.Client.cache hns;
        nsm_bind = t.remote_binding_nsm_bind;
        nsm_cache = Nsm.Binding_nsm_bind.cache t.remote_binding_nsm_bind;
        agent = None;
      }
  | Hns.Import.All_remote ->
      let hns = new_hns t ~on:t.agent_stack in
      let agent =
        Hns.Agent.create hns ~service_overhead_ms:Calib.agent_service_overhead_ms ()
      in
      Hns.Agent.start agent;
      {
        env = Hns.Import.env ~stack:t.client_stack ~agent:(Hns.Agent.binding agent) ();
        hns;
        hns_cache = Hns.Client.cache hns;
        nsm_bind = t.remote_binding_nsm_bind;
        nsm_cache = Nsm.Binding_nsm_bind.cache t.remote_binding_nsm_bind;
        agent = Some agent;
      }

let stop_parties p = match p.agent with Some a -> Hns.Agent.stop a | None -> ()

let flush_parties p =
  Hns.Cache.flush p.hns_cache;
  Hns.Cache.flush p.nsm_cache
