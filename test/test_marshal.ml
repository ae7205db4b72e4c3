(* The hand-marshalled hot path: Bytebuf growth/pooling, round-trip
   and byte-identity properties for every hot record shape, the
   zero-copy prefetch tail (no Value tree materialised), the 512-byte
   shed boundary, and the calibrated >=5x cost-model gap the BENCH
   marshal.* rows are built from. *)

open Helpers
module S = Workload.Scenario
module Schema = Hns.Meta_schema
module HC = Hns.Hot_codec

(* --- Bytebuf growth and reuse (the pool's substrate) --- *)

let bytebuf_amortised_doubling () =
  let w = Wire.Bytebuf.Wr.create ~initial:1 () in
  check_int "starts at the requested capacity" 1 (Wire.Bytebuf.Wr.capacity w);
  Wire.Bytebuf.Wr.bytes w (String.make 100 'a');
  check_int "grew by doubling to the next power" 128
    (Wire.Bytebuf.Wr.capacity w);
  check_int "length tracks writes" 100 (Wire.Bytebuf.Wr.length w);
  check_string "contents intact across growth" (String.make 100 'a')
    (Wire.Bytebuf.Wr.contents w)

let bytebuf_ensure_capacity () =
  let w = Wire.Bytebuf.Wr.create ~initial:16 () in
  Wire.Bytebuf.Wr.ensure_capacity w 17;
  check_int "doubles to cover the need" 32 (Wire.Bytebuf.Wr.capacity w);
  Wire.Bytebuf.Wr.ensure_capacity w 20;
  check_int "no growth when capacity suffices" 32 (Wire.Bytebuf.Wr.capacity w);
  Wire.Bytebuf.Wr.ensure_capacity w 200;
  check_int "multiple doublings in one call" 256 (Wire.Bytebuf.Wr.capacity w)

let bytebuf_clear_retains_capacity () =
  let w = Wire.Bytebuf.Wr.create ~initial:8 () in
  Wire.Bytebuf.Wr.bytes w (String.make 300 'b');
  let grown = Wire.Bytebuf.Wr.capacity w in
  Wire.Bytebuf.Wr.clear w;
  check_int "cleared writer is empty" 0 (Wire.Bytebuf.Wr.length w);
  check_int "capacity survives clear (pooling basis)" grown
    (Wire.Bytebuf.Wr.capacity w);
  Wire.Bytebuf.Wr.bytes w "fresh";
  check_string "reused backing store serves new writes" "fresh"
    (Wire.Bytebuf.Wr.contents w)

let bytebuf_append_and_pad () =
  let a = Wire.Bytebuf.Wr.create () and b = Wire.Bytebuf.Wr.create () in
  Wire.Bytebuf.Wr.bytes a "head-";
  Wire.Bytebuf.Wr.bytes b "tail";
  Wire.Bytebuf.Wr.append a b;
  check_string "append blits the source writer" "head-tail"
    (Wire.Bytebuf.Wr.contents a);
  Wire.Bytebuf.Wr.pad_to a 4;
  check_int "padded to the alignment" 12 (Wire.Bytebuf.Wr.length a);
  check_string "zero padding" "head-tail\000\000\000"
    (Wire.Bytebuf.Wr.contents a)

(* --- generators for the hot shapes --- *)

let suite_gen =
  QCheck.Gen.(
    map3
      (fun data_rep transport control ->
        { Hrpc.Component.data_rep; transport; control })
      (oneofl [ Wire.Data_rep.Xdr; Wire.Data_rep.Courier ])
      (oneofl [ Hrpc.Component.T_udp; Hrpc.Component.T_tcp ])
      (oneofl
         [ Hrpc.Component.C_sunrpc; Hrpc.Component.C_courier;
           Hrpc.Component.C_raw ]))

let name_gen = QCheck.Gen.(string_size ~gen:printable (int_bound 40))
let port_gen = QCheck.Gen.int_bound 65_535

let nsm_info_gen =
  QCheck.Gen.(
    map
      (fun (((nsm_host, nsm_host_context), (nsm_port, nsm_prog)),
            (nsm_vers, nsm_suite)) ->
        {
          Schema.nsm_host;
          nsm_host_context;
          nsm_port;
          nsm_prog;
          nsm_vers;
          nsm_suite;
        })
      (pair
         (pair (pair name_gen name_gen) (pair port_gen (int_bound 1_000_000)))
         (pair (int_bound 16) suite_gen)))

let ns_info_gen =
  QCheck.Gen.(
    map
      (fun ((ns_type, ns_host), (ns_host_context, ns_port)) ->
        { Schema.ns_type; ns_host; ns_host_context; ns_port })
      (pair (pair name_gen name_gen) (pair name_gen port_gen)))

let status_gen =
  QCheck.Gen.oneofl
    [ Schema.B_ok; Schema.B_no_context; Schema.B_no_nsm; Schema.B_no_binding ]

let arb gen = QCheck.make gen

(* --- round trips and byte-identity with the generated stubs --- *)

(* Every hand wire form must be the byte-identical Generic_marshal/Xdr
   form: that is what lets mixed fleets (hand-codec agents, generated
   1987 clients, old servers) share one wire. *)
let generic ty v = Wire.Generic_marshal.marshal Wire.Data_rep.Xdr ty v

let string_round_trip =
  QCheck.Test.make ~name:"string: round trip + byte-identical wire" ~count:200
    QCheck.(string_of_size Gen.(int_bound 80))
    (fun s ->
      HC.decode_string (HC.encode_string s) = Some s
      && HC.encode_string s = generic Schema.string_ty (Wire.Value.str s))

let host_addr_round_trip =
  QCheck.Test.make ~name:"host_addr: round trip + byte-identical wire"
    ~count:200 QCheck.int32 (fun ip ->
      HC.decode_host_addr (HC.encode_host_addr ip) = Some ip
      && HC.encode_host_addr ip = generic Schema.host_addr_ty (Wire.Value.Uint ip))

let status_round_trip =
  QCheck.Test.make ~name:"bundle_status: round trip + byte-identical wire"
    ~count:50 (arb status_gen) (fun st ->
      HC.decode_bundle_status (HC.encode_bundle_status st) = Some st
      && HC.encode_bundle_status st
         = generic Schema.bundle_status_ty (Schema.bundle_status_to_value st))

let nsm_info_round_trip =
  QCheck.Test.make ~name:"nsm_info: round trip + byte-identical wire"
    ~count:200 (arb nsm_info_gen) (fun i ->
      HC.decode_nsm_info (HC.encode_nsm_info i) = Some i
      && HC.encode_nsm_info i
         = generic Schema.nsm_info_ty (Schema.nsm_info_to_value i))

let ns_info_round_trip =
  QCheck.Test.make ~name:"ns_info: round trip + byte-identical wire" ~count:200
    (arb ns_info_gen) (fun i ->
      HC.decode_ns_info (HC.encode_ns_info i) = Some i
      && HC.encode_ns_info i
         = generic Schema.ns_info_ty (Schema.ns_info_to_value i))

let alternates_round_trip =
  QCheck.Test.make ~name:"alternates: round trip + byte-identical wire"
    ~count:200
    QCheck.(list_of_size Gen.(int_bound 8) (string_of_size Gen.(int_bound 24)))
    (fun names ->
      HC.decode_alternates (HC.encode_alternates names) = Some names
      && HC.encode_alternates names
         = generic Schema.nsm_alternates_ty
             (Wire.Value.Array (List.map Wire.Value.str names)))

(* Decoders are total: junk bytes yield None (the generic-fallback
   signal), never an exception. *)
let junk_never_raises =
  QCheck.Test.make ~name:"hot decoders never raise on junk bytes" ~count:300
    QCheck.(string_of_size Gen.(int_bound 64))
    (fun bytes ->
      ignore (HC.decode_string bytes);
      ignore (HC.decode_host_addr bytes);
      ignore (HC.decode_bundle_status bytes);
      ignore (HC.decode_nsm_info bytes);
      ignore (HC.decode_ns_info bytes);
      ignore (HC.decode_alternates bytes);
      true)

(* Value-level dispatch (the cache/meta-client entry point) agrees
   with Generic_marshal in both directions on every hot type. *)
let value_dispatch_agrees =
  let hand = { Wire.Hotcodec.per_call_ms = 0.0; per_record_ms = 0.0 } in
  QCheck.Test.make ~name:"decode_value/encode_value agree with the stubs"
    ~count:100 (arb nsm_info_gen) (fun i ->
      let checks =
        [
          (Schema.nsm_info_ty, Schema.nsm_info_to_value i);
          (Schema.string_ty, Wire.Value.str i.Schema.nsm_host);
          (Schema.host_addr_ty, Wire.Value.Uint (Int32.of_int i.Schema.nsm_port));
          ( Schema.nsm_alternates_ty,
            Wire.Value.Array [ Wire.Value.str i.Schema.nsm_host_context ] );
          (Schema.bundle_status_ty, Schema.bundle_status_to_value Schema.B_ok);
        ]
      in
      List.for_all
        (fun (ty, v) ->
          HC.encode_value ty v = Some (generic ty v)
          && HC.decode_hot (Some hand) ty (generic ty v) = Some v)
        checks)

(* --- buffer pool accounting --- *)

let m_pool_hits = Obs.Metrics.counter "wire.codec.pool_hits"
let m_pool_misses = Obs.Metrics.counter "wire.codec.pool_misses"

let pool_reuses_buffers () =
  let specimen =
    {
      Schema.nsm_host = "nsm.cs.washington.edu";
      nsm_host_context = "uw-cs";
      nsm_port = 2049;
      nsm_prog = 200_000;
      nsm_vers = 2;
      nsm_suite = Hrpc.Component.sunrpc_suite;
    }
  in
  let hits0 = Obs.Metrics.value m_pool_hits
  and misses0 = Obs.Metrics.value m_pool_misses in
  let n = 50 in
  for _ = 1 to n do
    ignore (HC.encode_nsm_info specimen)
  done;
  let hits = Obs.Metrics.value m_pool_hits - hits0
  and misses = Obs.Metrics.value m_pool_misses - misses0 in
  check_int "every encode borrowed from the pool" n (hits + misses);
  (* Sequential borrows reuse one writer: at most the first can miss
     (and none do once any earlier test warmed the shared pool). *)
  check_bool "at most one cold miss" true (misses <= 1);
  check_bool "the batch rode pooled buffers" true (hits >= n - 1)

(* --- the zero-copy prefetch tail --- *)

(* A testbed whose clients run the hand codec end to end: bundle
   FindNSM, resolve-tail prefetch, demarshalled agent cache. *)
let hand_scn =
  lazy
    (let scn = S.build ~bundle:true ~prefetch:true ~hand_codec:true () in
     Experiments.warm_hot_tracker scn;
     scn)

let fresh_agent scn =
  let hns =
    S.new_hns ~cache_mode:Hns.Cache.Demarshalled scn ~on:scn.S.agent_stack
  in
  let agent = Hns.Agent.create hns () in
  Hns.Agent.start agent;
  agent

(* A cold agent-mediated resolve whose bundle reply carries the
   prefetch tail: with the hand codec on, every piggybacked
   HostAddress row lands in the shared cache as a native demarshalled
   entry — the wire.codec.value_materializations counter must not
   move, while hand decodes do. *)
let prefetch_tail_is_zero_copy () =
  let scn = Lazy.force hand_scn in
  S.in_sim scn (fun () ->
      let agent = fresh_agent scn in
      let meta = Hns.Client.meta (Hns.Agent.hns agent) in
      let resolve host_stack =
        get_ok ~msg:"resolve"
          (Hns.Agent.remote_resolve_addr scn.S.client_stack
             ~agent:(Hns.Agent.binding agent)
             (Hns.Hns_name.make ~context:scn.S.bind_context
                ~name:
                  (Printf.sprintf "%s.%s"
                     (Transport.Netstack.host host_stack).Sim.Topology.hostname
                     scn.S.zone)))
      in
      let materialized0 = Wire.Hotcodec.value_materializations () in
      let decodes0 = Wire.Hotcodec.hand_decodes () in
      let ip = resolve scn.S.client_stack in
      check_bool "cold resolve answered correctly" true
        (ip = Transport.Netstack.ip scn.S.client_stack);
      check_bool "prefetch rows admitted to the shared cache" true
        (meta_count meta "hns.meta.bundle_prefetched" >= 3);
      check_int "no Value tree materialised on the tail" materialized0
        (Wire.Hotcodec.value_materializations ());
      check_bool "the tail went through the hand codec" true
        (Wire.Hotcodec.hand_decodes () > decodes0);
      (* The prefetched entries then serve other hot hosts natively:
         still no Value materialisation on the warm reads. *)
      let ip_nsm = resolve scn.S.nsm_stack in
      check_bool "warm prefetched answer correct" true
        (ip_nsm = Transport.Netstack.ip scn.S.nsm_stack);
      check_int "warm native reads stay zero-copy" materialized0
        (Wire.Hotcodec.value_materializations ());
      check_bool "tail round trips skipped" true
        (meta_count meta "hns.meta.prefetch_hits" >= 1);
      Hns.Agent.stop agent)

(* --- the 512-byte shed boundary --- *)

(* Offer the bundle synthesizer far more prefetch rows than a UDP
   reply can carry: the reply must still encode under the 512-byte
   ceiling, keeping a hottest-first prefix and shedding the rest —
   never truncating (a TC'd bundle loses everything). *)
let shed_512_boundary () =
  let scn = S.build ~bundle:true () in
  let offered = 64 in
  let hot_names =
    List.init offered (fun i ->
        Dns.Name.of_string (Printf.sprintf "host%02d.shed.example." i))
  in
  let prefetch =
    {
      Hns.Meta_bundle.k = offered;
      contexts = [];
      hot =
        (fun ~context:_ ->
          List.mapi (fun i n -> (n, float_of_int (offered - i))) hot_names);
      addr_of = (fun _ -> Some 0x0A0B0C0Dl);
      ttl_s = 60l;
      note = None;
    }
  in
  Hns.Meta_bundle.install ~prefetch scn.S.meta_bind;
  S.in_sim scn (fun () ->
      let r =
        Dns.Resolver.create scn.S.client_stack
          ~servers:[ Dns.Server.addr scn.S.meta_bind ] ~enable_cache:false ()
      in
      let qname =
        Schema.bundle_key ~context:scn.S.bind_context
          ~query_class:Hns.Query_class.hrpc_binding
      in
      match Dns.Resolver.query r qname Dns.Rr.T_unspec with
      | Error _ -> Alcotest.fail "bundle query failed"
      | Ok answers ->
          let wire =
            Dns.Msg.encode
              (Dns.Msg.response
                 ~request:(Dns.Msg.query ~id:0 qname Dns.Rr.T_unspec)
                 answers)
          in
          check_bool "reply fits the UDP ceiling whole" true
            (String.length wire <= Dns.Msg.udp_payload_limit);
          let hints =
            List.filter_map
              (fun (rr : Dns.Rr.t) -> Schema.parse_host_addr_key rr.name)
              answers
          in
          check_bool "some hints survived the shed" true
            (List.length hints > 0);
          check_bool "overflowing hints were shed" true
            (List.length hints < offered);
          (* Shedding drops from the cold end only. *)
          List.iteri
            (fun i (_context, host) ->
              check_string "hottest-first prefix kept"
                (Dns.Name.to_string (List.nth hot_names i))
                host)
            hints)

(* --- the calibrated cost gap and metric hygiene --- *)

(* The BENCH marshal.* rows are built from the two calibrated cost
   models; the acceptance bar is hand >= 5x cheaper per record over
   the hot mix (paper: 10-25 ms generated vs 0.65-2.6 ms hand). *)
let model_gap_at_least_5x () =
  let rows = Experiments.marshal_rows () in
  let mean name = Sim.Stats.mean (List.assoc name rows) in
  let generated =
    mean "marshal.generated.encode_ms" +. mean "marshal.generated.decode_ms"
  and hand = mean "marshal.hand.encode_ms" +. mean "marshal.hand.decode_ms" in
  check_bool
    (Printf.sprintf "hand codec >= 5x cheaper (got %.1fx)" (generated /. hand))
    true
    (generated >= 5.0 *. hand);
  check_float_near "bytes identical across codecs"
    (mean "marshal.generated.bytes")
    (mean "marshal.hand.bytes")

let codec_metrics_lint_clean () =
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    n = 0 || go 0
  in
  (* Exercise every counter family first so lint sees live names. *)
  ignore (HC.decode_string (HC.encode_string "lint"));
  ignore (HC.decode_nsm_info "junk");
  match
    List.filter (contains ~sub:"wire.codec") (Obs.Metrics.lint ())
  with
  | [] -> ()
  | complaints ->
      Alcotest.failf "wire.codec.* metrics fail lint: %s"
        (String.concat "; " complaints)

let suite =
  [
    Alcotest.test_case "Bytebuf grows by amortised doubling" `Quick
      bytebuf_amortised_doubling;
    Alcotest.test_case "ensure_capacity doubles to cover the need" `Quick
      bytebuf_ensure_capacity;
    Alcotest.test_case "clear retains capacity for pooling" `Quick
      bytebuf_clear_retains_capacity;
    Alcotest.test_case "append blits and pad_to aligns" `Quick
      bytebuf_append_and_pad;
    qtest string_round_trip;
    qtest host_addr_round_trip;
    qtest status_round_trip;
    qtest nsm_info_round_trip;
    qtest ns_info_round_trip;
    qtest alternates_round_trip;
    qtest junk_never_raises;
    qtest value_dispatch_agrees;
    Alcotest.test_case "encode batches reuse pooled buffers" `Quick
      pool_reuses_buffers;
    Alcotest.test_case "prefetch tail decodes zero-copy" `Quick
      prefetch_tail_is_zero_copy;
    Alcotest.test_case "bundle reply sheds to the 512-byte boundary" `Quick
      shed_512_boundary;
    Alcotest.test_case "calibrated hand/generated gap is >= 5x" `Quick
      model_gap_at_least_5x;
    Alcotest.test_case "wire.codec.* metrics pass lint" `Quick
      codec_metrics_lint_clean;
  ]
