(* Cross-cutting property tests: whole-message roundtrips for every
   wire protocol, cache laws, and engine scheduling laws. *)

open Helpers

(* --- generators --- *)

let gen_label =
  QCheck.Gen.(
    map (String.concat "")
      (list_size (int_range 1 8) (map (String.make 1) (char_range 'a' 'z'))))

let gen_dns_name = QCheck.Gen.(map Dns.Name.of_labels (list_size (int_range 0 4) gen_label))

let gen_rdata =
  QCheck.Gen.(
    oneof
      [
        map (fun ip -> Dns.Rr.A (Int32.of_int ip)) int;
        map (fun n -> Dns.Rr.Ns n) gen_dns_name;
        map (fun n -> Dns.Rr.Cname n) gen_dns_name;
        map (fun n -> Dns.Rr.Ptr n) gen_dns_name;
        map2 (fun cpu os -> Dns.Rr.Hinfo (cpu, os)) gen_label gen_label;
        map2 (fun pref n -> Dns.Rr.Mx (pref land 0xFFFF, n)) small_int gen_dns_name;
        map (fun ss -> Dns.Rr.Txt ss) (list_size (int_range 1 3) gen_label);
        map (fun s -> Dns.Rr.Unspec s) (string_size (int_bound 40));
        map2
          (fun m r ->
            Dns.Rr.Soa
              {
                Dns.Rr.mname = m;
                rname = r;
                serial = 5l;
                refresh = 6l;
                retry = 7l;
                expire = 8l;
                minimum = 9l;
              })
          gen_dns_name gen_dns_name;
      ])

let gen_rr =
  QCheck.Gen.(
    map2
      (fun name rdata -> Dns.Rr.make ~ttl:300l name rdata)
      (map2 (fun l n -> Dns.Name.prepend l n) gen_label gen_dns_name)
      gen_rdata)

let gen_qtype =
  QCheck.Gen.oneofl
    [ Dns.Rr.T_a; T_ns; T_cname; T_soa; T_ptr; T_hinfo; T_mx; T_txt; T_unspec; T_any ]

let gen_query_msg =
  QCheck.Gen.(
    map2
      (fun (id, name) qtype -> Dns.Msg.query ~id:(id land 0xFFFF) name qtype)
      (pair small_int (map2 Dns.Name.prepend gen_label gen_dns_name))
      gen_qtype)

let gen_response_msg =
  QCheck.Gen.(
    gen_query_msg >>= fun q ->
    map (fun answers -> Dns.Msg.response ~request:q answers) (list_size (int_bound 5) gen_rr))

let gen_update_msg =
  QCheck.Gen.(
    let zone = Dns.Name.of_string "z" in
    let in_zone = map (fun l -> Dns.Name.prepend l zone) gen_label in
    let gen_op =
      oneof
        [
          map2 (fun n rd -> Dns.Msg.Add (Dns.Rr.make n rd)) in_zone gen_rdata;
          map (fun n -> Dns.Msg.Delete_rrset (n, Dns.Rr.T_a)) in_zone;
          map2 (fun n rd -> Dns.Msg.Delete_rr (n, rd)) in_zone gen_rdata;
          map (fun n -> Dns.Msg.Delete_name n) in_zone;
        ]
    in
    map2
      (fun id ops -> Dns.Msg.update_request ~id:(id land 0xFFFF) ~zone ops)
      small_int
      (list_size (int_range 1 5) gen_op))

let arb_msg =
  QCheck.make
    QCheck.Gen.(oneof [ gen_query_msg; gen_response_msg; gen_update_msg ])
    ~print:(Format.asprintf "%a" Dns.Msg.pp)

let dns_msg_roundtrip =
  QCheck.Test.make ~name:"DNS message roundtrip (queries/responses/updates)" ~count:500
    arb_msg
    (fun m -> Dns.Msg.decode (Dns.Msg.encode m) = m)

(* Bytes shaped like a DNS message: a header with small counts, then
   labels (upper-case bytes included), runs of long labels that make a
   name over 255 bytes, pointers, terminators, an A/IN type and class,
   and stray bytes. *)
let gen_wire_shaped =
  QCheck.Gen.(
    let header =
      map3
        (fun flags qdcount counts ->
          let b = Buffer.create 12 in
          Buffer.add_uint16_be b 7;
          Buffer.add_uint16_be b flags;
          List.iter (Buffer.add_uint16_be b) (qdcount :: counts);
          Buffer.contents b)
        (oneofl [ 0x0000; 0x8400; 0x2000; 0x2800 ])
        (int_range 1 2)
        (list_repeat 3 (int_range 0 1))
    in
    let label len c = String.make 1 (Char.chr len) ^ String.make len c in
    let token =
      frequency
        [
          (6, map2 label (int_range 1 63) (char_range 'A' 'z'));
          (1, map (fun len -> String.concat "" (List.init 5 (fun _ -> label len 'x'))) (int_range 40 63));
          (2, map (fun off -> Printf.sprintf "\xC0%c" (Char.chr off)) (int_range 0 80));
          (2, return "\x00");
          (2, return "\x00\x01\x00\x01");
          (1, map (String.make 1) char);
        ]
    in
    map2 (fun h tokens -> h ^ String.concat "" tokens) header (list_size (int_bound 14) token))

let dns_msg_decode_total =
  (* decode never raises anything but Bad_message on arbitrary bytes *)
  QCheck.Test.make ~name:"DNS decode is total" ~count:500
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(oneof [ string_size (int_bound 600); gen_wire_shaped ]))
    (fun s ->
      match Dns.Msg.decode s with
      | _ -> true
      | exception Dns.Msg.Bad_message _ -> true
      | exception _ -> false)

(* --- the DNS codec against its reference model (msg_model.ml) --- *)

(* A small label pool makes names share suffixes, so compression
   pointers are common. *)
let gen_pool_label =
  QCheck.Gen.(oneof [ oneofl [ "a"; "b"; "cs"; "edu"; "hns-meta" ]; gen_label ])

(* Labels holding a '.': ["a.b"; "cs"] and ["a"; "b.cs"] print alike. *)
let gen_dotted_label =
  QCheck.Gen.(oneof [ gen_pool_label; oneofl [ "a.b"; "b.cs"; "a.b.cs"; "."; "cs.edu" ] ])

let gen_codec_msg gen_label =
  QCheck.Gen.(
    let name = map Dns.Name.of_labels (list_size (int_range 0 4) gen_label) in
    let owner = map2 Dns.Name.prepend gen_label name in
    let rdata =
      oneof
        [
          map (fun ip -> Dns.Rr.A (Int32.of_int ip)) int;
          map (fun n -> Dns.Rr.Cname n) name;
          map2 (fun pref n -> Dns.Rr.Mx (pref land 0xFFFF, n)) small_int name;
          map2
            (fun m r ->
              Dns.Rr.Soa
                {
                  Dns.Rr.mname = m;
                  rname = r;
                  serial = 1l;
                  refresh = 2l;
                  retry = 3l;
                  expire = 4l;
                  minimum = 5l;
                })
            name name;
          map (fun s -> Dns.Rr.Unspec s) (string_size (int_range 0 80));
        ]
    in
    let rr = map2 (fun n rd -> Dns.Rr.make n rd) owner rdata in
    let query = map2 (fun n qtype -> Dns.Msg.query ~id:9 n qtype) owner gen_qtype in
    let response answers = map (fun q -> Dns.Msg.response ~request:q answers) query in
    let op =
      oneof
        [
          map (fun r -> Dns.Msg.Add r) rr;
          map (fun n -> Dns.Msg.Delete_rrset (n, Dns.Rr.T_a)) owner;
          map2 (fun n rd -> Dns.Msg.Delete_rr (n, rd)) owner rdata;
          map (fun n -> Dns.Msg.Delete_name n) owner;
        ]
    in
    (* A first answer this large puts the later names either side of
       0x4000, the last offset a pointer can reach. *)
    let near_pointer_limit =
      map3
        (fun pad (first, rest) q ->
          Dns.Msg.response ~request:q
            (Dns.Rr.make first (Dns.Rr.Unspec (String.make pad 'p')) :: rest))
        (int_range 0x3F80 0x4010) (pair owner (list_size (int_range 1 6) rr)) query
    in
    oneof
      [
        query;
        list_size (int_bound 8) rr >>= response;
        triple (list_size (int_bound 4) rr) (list_size (int_bound 3) rr)
          (list_size (int_bound 3) rr)
        >>= (fun (answers, authority, additional) ->
        map
          (fun r -> { r with Dns.Msg.authority; additional })
          (response answers));
        map2
          (fun zone ops -> Dns.Msg.update_request ~id:3 ~zone ops)
          name (list_size (int_range 1 6) op);
        (* replies around the 512-byte UDP limit *)
        list_size (int_range 4 12) rr >>= response;
        near_pointer_limit;
      ])

let arb_codec_msg gen_label =
  QCheck.make (gen_codec_msg gen_label) ~print:(Format.asprintf "%a" Dns.Msg.pp)

let rdata_names : Dns.Rr.rdata -> Dns.Name.t list = function
  | Ns n | Cname n | Ptr n | Mx (_, n) -> [ n ]
  | Soa s -> [ s.mname; s.rname ]
  | A _ | Hinfo _ | Txt _ | Unspec _ -> []

let msg_names (m : Dns.Msg.t) =
  let rr (r : Dns.Rr.t) = r.name :: rdata_names r.rdata in
  let op = function
    | Dns.Msg.Add r -> rr r
    | Delete_rrset (n, _) | Delete_name n -> [ n ]
    | Delete_rr (n, rd) -> n :: rdata_names rd
  in
  List.map (fun (q : Dns.Msg.question) -> q.qname) m.questions
  @ List.concat_map rr (m.answers @ m.authority @ m.additional)
  @ List.concat_map op m.updates

let canonical n = Dns.Name.equal n (Dns.Name.of_labels (Dns.Name.labels n))

let codec_matches_reference_bytes =
  QCheck.Test.make ~name:"DNS encode: the reference model's bytes" ~count:300
    (arb_codec_msg gen_pool_label)
    (fun m ->
      Dns.Msg.encode m = Msg_model.encode m
      && Dns.Msg.encode ~compress:false m = Msg_model.encode ~compress:false m)

let codec_roundtrip_dotted =
  QCheck.Test.make ~name:"DNS decode (encode m) = m, dotted labels too" ~count:300
    (arb_codec_msg gen_dotted_label)
    (fun m ->
      Dns.Msg.decode (Dns.Msg.encode m) = m
      && Dns.Msg.decode (Dns.Msg.encode ~compress:false m) = m)

(* Upper-case some label bytes on the wire, chosen by [bits]. *)
let mixed_case bits label =
  String.mapi
    (fun i c -> if (bits lsr (i mod 30)) land 1 = 1 then Char.uppercase_ascii c else c)
    label

let codec_decodes_canonical_names =
  QCheck.Test.make ~name:"DNS decode: mixed case folds, names canonical" ~count:300
    (QCheck.pair (arb_codec_msg gen_pool_label) QCheck.int)
    (fun (m, bits) ->
      let wire = Msg_model.encode ~label_case:(mixed_case bits) m in
      let decoded = Dns.Msg.decode wire in
      decoded = m && decoded = Msg_model.decode wire
      && List.for_all canonical (msg_names decoded))

let codec_udp_matches_reference =
  QCheck.Test.make ~name:"DNS encode_for_udp: reference truncate, then encode" ~count:300
    (arb_codec_msg gen_pool_label)
    (fun m ->
      let sent, bytes = Dns.Msg.encode_for_udp m in
      let expected = Msg_model.truncate_for_udp m in
      sent = expected && bytes = Msg_model.encode expected)

(* --- sun rpc / courier wire fuzz --- *)

let sunrpc_decode_total =
  QCheck.Test.make ~name:"Sun RPC decode is total" ~count:500
    QCheck.(string_of_size (Gen.int_bound 64))
    (fun s ->
      match Rpc.Sunrpc_wire.decode s with
      | _ -> true
      | exception Rpc.Sunrpc_wire.Bad_message _ -> true
      | exception _ -> false)

let courier_decode_total =
  QCheck.Test.make ~name:"Courier decode is total" ~count:500
    QCheck.(string_of_size (Gen.int_bound 64))
    (fun s ->
      match Rpc.Courier_wire.decode s with
      | _ -> true
      | exception Rpc.Courier_wire.Bad_message _ -> true
      | exception _ -> false)

(* --- binding/hrpc properties --- *)

let binding_bytes_stable =
  (* serialization is canonical: encode . decode . encode = encode *)
  let gen =
    QCheck.Gen.(
      map2
        (fun ip port ->
          Hrpc.Binding.make ~suite:Hrpc.Component.courier_suite
            ~server:(Transport.Address.make (Int32.of_int ip) (port land 0xFFFF))
            ~prog:port ~vers:1)
        int small_int)
  in
  QCheck.Test.make ~name:"binding bytes canonical" ~count:200
    (QCheck.make gen ~print:(Format.asprintf "%a" Hrpc.Binding.pp))
    (fun b ->
      let once = Hrpc.Binding.to_bytes b in
      String.equal once (Hrpc.Binding.to_bytes (Hrpc.Binding.of_bytes once)))

(* --- cache laws --- *)

let cache_read_your_write =
  QCheck.Test.make ~name:"cache: read-your-write within TTL" ~count:200
    QCheck.(pair (oneofl [ Hns.Cache.Marshalled; Hns.Cache.Demarshalled ]) small_int)
    (fun (mode, n) ->
      let c = Hns.Cache.create ~mode () in
      let v = Wire.Value.Array (List.init (n mod 5) (fun i -> Wire.Value.int i)) in
      let ty = Wire.Idl.T_array Wire.Idl.T_int in
      Hns.Cache.insert c ~key:"k" ~ty v;
      match Hns.Cache.find c ~key:"k" ~ty with
      | Some v' -> Wire.Value.equal v v'
      | None -> false)

let cache_overwrite_wins =
  QCheck.Test.make ~name:"cache: last insert wins" ~count:200
    QCheck.(pair small_int small_int)
    (fun (a, b) ->
      let c = Hns.Cache.create ~mode:Hns.Cache.Marshalled () in
      let ty = Wire.Idl.T_int in
      Hns.Cache.insert c ~key:"k" ~ty (Wire.Value.int a);
      Hns.Cache.insert c ~key:"k" ~ty (Wire.Value.int b);
      Hns.Cache.find c ~key:"k" ~ty = Some (Wire.Value.int b))

(* --- engine laws --- *)

let engine_events_fire_in_time_order =
  QCheck.Test.make ~name:"engine: callbacks fire in timestamp order" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 20) (float_range 0.0 1000.0))
    (fun delays ->
      let w = make_world ~hosts:1 () in
      let fired = ref [] in
      List.iter
        (fun d -> Sim.Engine.at w.engine d (fun () -> fired := d :: !fired))
        delays;
      Sim.Engine.run w.engine;
      let fired = List.rev !fired in
      fired = List.stable_sort compare delays)

let engine_sleep_additive =
  QCheck.Test.make ~name:"engine: sleeps accumulate exactly" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 10) (float_range 0.0 100.0))
    (fun delays ->
      let w = make_world ~hosts:1 () in
      let total = ref nan in
      Sim.Engine.spawn w.engine (fun () ->
          List.iter Sim.Engine.sleep delays;
          total := Sim.Engine.time ());
      Sim.Engine.run w.engine;
      Float.abs (!total -. List.fold_left ( +. ) 0.0 delays) < 1e-6)

(* --- idl/value laws --- *)

let node_count_positive =
  QCheck.Test.make ~name:"node_count >= 1" ~count:300 Test_wire.arb_ty_value
    (fun (_, v) -> Wire.Value.node_count v >= 1)

let xdr_courier_disagree_is_fine =
  (* the two representations are genuinely different formats for any
     value with a string or bool in it — sanity that we aren't testing
     a codec against itself *)
  QCheck.Test.make ~name:"XDR and Courier differ on booleans" ~count:50 QCheck.bool
    (fun b ->
      let v = Wire.Value.Bool b in
      Wire.Xdr.to_string Wire.Idl.T_bool v <> Wire.Courier.to_string Wire.Idl.T_bool v)

let suite =
  [
    qtest dns_msg_roundtrip;
    qtest dns_msg_decode_total;
    qtest codec_matches_reference_bytes;
    qtest codec_roundtrip_dotted;
    qtest codec_decodes_canonical_names;
    qtest codec_udp_matches_reference;
    qtest sunrpc_decode_total;
    qtest courier_decode_total;
    qtest binding_bytes_stable;
    qtest cache_read_your_write;
    qtest cache_overwrite_wins;
    qtest engine_events_fire_in_time_order;
    qtest engine_sleep_additive;
    qtest node_count_positive;
    qtest xdr_courier_disagree_is_fine;
  ]

(* --- a few more cross-cutting checks --- *)

let iterative_query_caches () =
  let w = Helpers.make_world ~hosts:3 () in
  let served_after_two =
    Helpers.in_sim w (fun () ->
        let parent = Dns.Server.create w.stacks.(0) () in
        Dns.Server.add_zone parent
          (Dns.Zone.simple ~origin:(Dns.Name.of_string "z")
             [ Dns.Rr.make (Dns.Name.of_string "h.z") (Dns.Rr.A 3l) ]);
        Dns.Server.start parent;
        let r = Dns.Resolver.create w.stacks.(2) ~servers:[ Dns.Server.addr parent ] () in
        ignore (Dns.Resolver.query_iterative r (Dns.Name.of_string "h.z") Dns.Rr.T_a);
        ignore (Dns.Resolver.query_iterative r (Dns.Name.of_string "h.z") Dns.Rr.T_a);
        Dns.Server.queries_served parent)
  in
  Helpers.check_int "second iterative query is a cache hit" 1 served_after_two

let address_ordering_total =
  QCheck.Test.make ~name:"address compare is a total order" ~count:200
    QCheck.(triple (pair int small_int) (pair int small_int) (pair int small_int))
    (fun ((i1, p1), (i2, p2), (i3, p3)) ->
      let mk (i, p) = Transport.Address.make (Int32.of_int i) (p land 0xFFFF) in
      let a = mk (i1, p1) and b = mk (i2, p2) and c = mk (i3, p3) in
      let cmp = Transport.Address.compare in
      (* antisymmetry and transitivity spot checks *)
      (cmp a b = -cmp b a || cmp a b = 0)
      && (not (cmp a b <= 0 && cmp b c <= 0) || cmp a c <= 0))

let engine_negative_delay_rejected () =
  let w = Helpers.make_world ~hosts:1 () in
  match Sim.Engine.at w.engine (-1.0) (fun () -> ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative delay must be rejected"

let idl_pp_total =
  QCheck.Test.make ~name:"Idl.pp and Value.pp never raise" ~count:200
    Test_wire.arb_ty_value
    (fun (ty, v) ->
      ignore (Format.asprintf "%a" Wire.Idl.pp ty);
      ignore (Format.asprintf "%a" Wire.Value.pp v);
      true)

let zipf_cdf_monotone =
  QCheck.Test.make ~name:"zipf pmf is nonincreasing in rank" ~count:100
    QCheck.(pair (int_range 2 60) (float_range 0.1 3.0))
    (fun (n, s) ->
      let z = Workload.Zipf.create ~n ~s in
      let ok = ref true in
      for k = 1 to n - 1 do
        if Workload.Zipf.pmf z k > Workload.Zipf.pmf z (k - 1) +. 1e-12 then ok := false
      done;
      !ok)

let more_properties =
  [
    Alcotest.test_case "iterative query caches" `Quick iterative_query_caches;
    qtest address_ordering_total;
    Alcotest.test_case "negative delay rejected" `Quick engine_negative_delay_rejected;
    qtest idl_pp_total;
    qtest zipf_cdf_monotone;
  ]

let suite = suite @ more_properties

(* --- chaos layer properties: backoff schedules and fault healing --- *)

(* Arbitrary sane retry policies (multiplier >= 1 keeps the nominal
   pause sequence non-decreasing, which is the regime the jitter
   envelope below assumes). *)
let gen_policy =
  QCheck.Gen.(
    map
      (fun ((attempts, timeout), (base, mult), (cap, (ratio, seed))) ->
        {
          Rpc.Control.default_policy with
          Rpc.Control.attempts = attempts;
          attempt_timeout_ms = timeout;
          backoff_base_ms = base;
          backoff_multiplier = mult;
          backoff_cap_ms = cap;
          jitter_ratio = ratio;
          jitter_seed = Int64.of_int seed;
        })
      (triple
         (pair (int_range 1 8) (float_range 1.0 2000.0))
         (pair (float_range 1.0 500.0) (float_range 1.0 3.0))
         (pair (float_range 50.0 5000.0) (pair (float_range 0.0 0.9) int))))

let arb_policy_and_seed =
  QCheck.make
    QCheck.Gen.(pair gen_policy (map Int64.of_int int))
    ~print:(fun (p, seed) ->
      Printf.sprintf "attempts=%d base=%.1f mult=%.2f cap=%.1f jitter=%.2f seed=%Ld"
        p.Rpc.Control.attempts p.Rpc.Control.backoff_base_ms
        p.Rpc.Control.backoff_multiplier p.Rpc.Control.backoff_cap_ms
        p.Rpc.Control.jitter_ratio seed)

let backoff_monotone =
  QCheck.Test.make ~name:"backoff schedule is monotone non-decreasing" ~count:300
    arb_policy_and_seed (fun (p, seed) ->
      let s = Rpc.Control.backoff_schedule p ~seed in
      let ok = ref true in
      for i = 1 to Array.length s - 1 do
        if s.(i) < s.(i - 1) then ok := false
      done;
      !ok)

let backoff_capped =
  QCheck.Test.make ~name:"backoff schedule never exceeds the cap" ~count:300
    arb_policy_and_seed (fun (p, seed) ->
      let s = Rpc.Control.backoff_schedule p ~seed in
      Array.for_all (fun d -> d <= p.Rpc.Control.backoff_cap_ms +. 1e-9) s)

let backoff_jitter_bounds =
  QCheck.Test.make ~name:"backoff pauses stay inside the jitter envelope"
    ~count:300 arb_policy_and_seed (fun (p, seed) ->
      let s = Rpc.Control.backoff_schedule p ~seed in
      let ok = ref true in
      Array.iteri
        (fun i d ->
          let nominal =
            p.Rpc.Control.backoff_base_ms
            *. (p.Rpc.Control.backoff_multiplier ** float_of_int i)
          in
          let cap = p.Rpc.Control.backoff_cap_ms in
          let lo = Float.min cap (nominal *. (1.0 -. p.Rpc.Control.jitter_ratio))
          and hi = Float.min cap (nominal *. (1.0 +. p.Rpc.Control.jitter_ratio)) in
          if d < lo -. 1e-9 || d > hi +. 1e-9 then ok := false)
        s;
      !ok)

let backoff_deterministic =
  QCheck.Test.make ~name:"backoff schedule is a function of policy and seed"
    ~count:200 arb_policy_and_seed (fun (p, seed) ->
      Rpc.Control.backoff_schedule p ~seed = Rpc.Control.backoff_schedule p ~seed)

let backoff_within_budget =
  QCheck.Test.make ~name:"attempt deadlines plus pauses fit the retry budget"
    ~count:200 arb_policy_and_seed (fun (p, seed) ->
      let s = Rpc.Control.backoff_schedule p ~seed in
      let total = ref 0.0 in
      Array.iter (fun d -> total := !total +. d) s;
      for i = 1 to p.Rpc.Control.attempts do
        total := !total +. Rpc.Control.attempt_timeout p i
      done;
      !total <= Rpc.Control.retry_budget_ms p +. 1e-6)

(* A partition healed at T must not fail calls issued at or after T:
   the half-open fault window [at, heal_at) frees the very instant of
   the heal. *)
let echo_sign = Wire.Idl.signature ~arg:Wire.Idl.T_string ~res:Wire.Idl.T_string

let call_after_partition ~heal_at ~policy =
  let w = Helpers.make_world ~hosts:2 () in
  Helpers.in_sim w (fun () ->
      let server =
        Hrpc.Server.create w.stacks.(0) ~suite:Hrpc.Component.sunrpc_suite
          ~prog:4100 ~vers:1 ()
      in
      Hrpc.Server.register server ~procnum:1 ~sign:echo_sign (fun v -> v);
      Hrpc.Server.start server;
      let inj =
        Chaos.Injector.install
          [
            Chaos.Plan.partition ~group_a:[ "h0" ] ~group_b:[ "h1" ] ~at:0.0
              ~heal_at;
          ]
          w.net
      in
      Sim.Engine.sleep heal_at;
      let r =
        Hrpc.Client.call w.stacks.(1) (Hrpc.Server.binding server) ~procnum:1
          ~sign:echo_sign ~policy (Wire.Value.Str "after the heal")
      in
      Chaos.Injector.uninstall inj;
      r)

let partition_healed_never_errors =
  QCheck.Test.make ~name:"partition healed at T never errors after T" ~count:20
    (QCheck.make
       QCheck.Gen.(
         pair (float_range 100.0 3000.0)
           (pair (int_range 1 3) (float_range 50.0 400.0)))
       ~print:(fun (t, (a, ms)) -> Printf.sprintf "T=%.1f attempts=%d timeout=%.1f" t a ms))
    (fun (heal_at, (attempts, attempt_timeout_ms)) ->
      let policy =
        {
          Rpc.Control.default_policy with
          Rpc.Control.attempts;
          attempt_timeout_ms;
          backoff_base_ms = 20.0;
          backoff_cap_ms = 100.0;
        }
      in
      call_after_partition ~heal_at ~policy = Ok (Wire.Value.Str "after the heal"))

(* A call *issued during* the partition whose retry budget stretches
   past the heal succeeds: retries keep probing until an attempt lands
   in the healed window. *)
let retries_straddle_the_heal () =
  let w = Helpers.make_world ~hosts:2 () in
  let policy =
    {
      Rpc.Control.default_policy with
      Rpc.Control.attempts = 5;
      attempt_timeout_ms = 500.0;
      timeout_multiplier = 1.0;
      backoff_base_ms = 100.0;
      backoff_multiplier = 1.0;
      backoff_cap_ms = 100.0;
      jitter_ratio = 0.0;
    }
  in
  let heal_at = 1_500.0 in
  (* budget 500*5 + 100*4 = 2900 ms: attempts at ~0/600/1200/1800 —
     the fourth lands after the heal and must succeed. *)
  let r =
    Helpers.in_sim w (fun () ->
        let server =
          Hrpc.Server.create w.stacks.(0) ~suite:Hrpc.Component.sunrpc_suite
            ~prog:4200 ~vers:1 ()
        in
        Hrpc.Server.register server ~procnum:1 ~sign:echo_sign (fun v -> v);
        Hrpc.Server.start server;
        let inj =
          Chaos.Injector.install
            [
              Chaos.Plan.partition ~group_a:[ "h0" ] ~group_b:[ "h1" ] ~at:0.0
                ~heal_at;
            ]
            w.net
        in
        let r =
          Hrpc.Client.call w.stacks.(1) (Hrpc.Server.binding server) ~procnum:1
            ~sign:echo_sign ~policy (Wire.Value.Str "straddle")
        in
        Chaos.Injector.uninstall inj;
        (r, Sim.Engine.time ()))
  in
  (match r with
  | Ok (Wire.Value.Str "straddle"), t ->
      Helpers.check_bool "succeeded after the heal, within the budget" true
        (t >= heal_at && t <= Rpc.Control.retry_budget_ms policy)
  | Ok _, _ -> Alcotest.fail "wrong echo payload"
  | Error e, _ ->
      Alcotest.failf "call across the heal failed: %a" Rpc.Control.pp_error e)

let chaos_properties =
  [
    qtest backoff_monotone;
    qtest backoff_capped;
    qtest backoff_jitter_bounds;
    qtest backoff_deterministic;
    qtest backoff_within_budget;
    qtest partition_healed_never_errors;
    Alcotest.test_case "retries straddle the heal" `Quick retries_straddle_the_heal;
  ]

let suite = suite @ chaos_properties
