(* Tests for the BIND reproduction: names, records, the database, the
   message format, the server, the resolver cache, dynamic update, and
   zone transfer. *)

open Helpers

(* --- names --- *)

let name_parse_print () =
  let n = Dns.Name.of_string "FIJI.CS.Washington.EDU." in
  check_string "case folded, dot dropped" "fiji.cs.washington.edu" (Dns.Name.to_string n);
  check_bool "root" true (Dns.Name.is_root (Dns.Name.of_string ""));
  check_string "root prints dot" "." (Dns.Name.to_string Dns.Name.root);
  check_int "labels" 4 (Dns.Name.label_count n)

let name_validation () =
  (match Dns.Name.of_string "a..b" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty label");
  match Dns.Name.of_labels [ String.make 64 'x' ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "oversized label"

let name_subdomain () =
  let zone = Dns.Name.of_string "cs.washington.edu" in
  check_bool "self" true (Dns.Name.is_subdomain ~of_:zone zone);
  check_bool "child" true
    (Dns.Name.is_subdomain ~of_:zone (Dns.Name.of_string "fiji.cs.washington.edu"));
  check_bool "sibling" false
    (Dns.Name.is_subdomain ~of_:zone (Dns.Name.of_string "ee.washington.edu"));
  check_bool "everything under root" true
    (Dns.Name.is_subdomain ~of_:Dns.Name.root zone)

let name_parent_prepend () =
  let n = Dns.Name.of_string "a.b.c" in
  check_bool "parent" true
    (Dns.Name.parent n = Some (Dns.Name.of_string "b.c"));
  check_bool "root parent" true (Dns.Name.parent Dns.Name.root = None);
  check_string "prepend" "x.a.b.c" (Dns.Name.to_string (Dns.Name.prepend "X" n))

let gen_name =
  QCheck.Gen.(
    let label = map (String.concat "") (list_size (int_range 1 6) (map (String.make 1) (char_range 'a' 'z'))) in
    map Dns.Name.of_labels (list_size (int_range 0 5) label))

let arb_name = QCheck.make gen_name ~print:Dns.Name.to_string

let name_string_roundtrip =
  QCheck.Test.make ~name:"name of_string/to_string roundtrip" ~count:200 arb_name
    (fun n -> Dns.Name.equal n (Dns.Name.of_string (Dns.Name.to_string n)))

(* --- db --- *)

let mk_a name ip = Dns.Rr.make (Dns.Name.of_string name) (Dns.Rr.A ip)

let db_rrset_semantics () =
  let db = Dns.Db.create () in
  Dns.Db.add db (mk_a "h.z" 1l);
  Dns.Db.add db (mk_a "h.z" 2l);
  Dns.Db.add db (mk_a "h.z" 1l) (* duplicate rdata refreshes, no dup *);
  Dns.Db.add db (Dns.Rr.make (Dns.Name.of_string "h.z") (Dns.Rr.Txt [ "t" ]));
  check_int "two A records" 2 (List.length (Dns.Db.lookup db (Dns.Name.of_string "h.z") Dns.Rr.T_a));
  check_int "ANY returns all" 3 (List.length (Dns.Db.lookup db (Dns.Name.of_string "h.z") Dns.Rr.T_any));
  Dns.Db.remove_rr db (Dns.Name.of_string "h.z") (Dns.Rr.A 1l);
  check_int "specific delete" 1 (List.length (Dns.Db.lookup db (Dns.Name.of_string "h.z") Dns.Rr.T_a));
  Dns.Db.remove_rrset db (Dns.Name.of_string "h.z") Dns.Rr.T_a;
  check_int "rrset delete" 0 (List.length (Dns.Db.lookup db (Dns.Name.of_string "h.z") Dns.Rr.T_a));
  check_bool "name still there (TXT)" true (Dns.Db.has_name db (Dns.Name.of_string "h.z"));
  Dns.Db.remove_name db (Dns.Name.of_string "h.z");
  check_bool "name gone" false (Dns.Db.has_name db (Dns.Name.of_string "h.z"))

let zone_rejects_foreign_records () =
  match
    Dns.Zone.simple ~origin:(Dns.Name.of_string "a.example") [ mk_a "h.other" 1l ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-zone record should be rejected"

let zone_serial_bumps () =
  let z = Dns.Zone.simple ~origin:(Dns.Name.of_string "z") [] in
  let s0 = Dns.Zone.serial z in
  Dns.Zone.bump_serial z;
  check_bool "serial increases" true (Dns.Zone.serial z = Int32.add s0 1l)

(* --- message format --- *)

let msg_query_roundtrip () =
  let q = Dns.Msg.query ~id:7 (Dns.Name.of_string "fiji.cs.washington.edu") Dns.Rr.T_a in
  let q' = Dns.Msg.decode (Dns.Msg.encode q) in
  check_bool "roundtrip" true (q' = q)

let msg_response_roundtrip () =
  let q = Dns.Msg.query ~id:9 (Dns.Name.of_string "h.z") Dns.Rr.T_any in
  let answers =
    [
      mk_a "h.z" 0x0A000001l;
      Dns.Rr.make (Dns.Name.of_string "h.z") (Dns.Rr.Txt [ "a"; "b" ]);
      Dns.Rr.make (Dns.Name.of_string "h.z") (Dns.Rr.Mx (10, Dns.Name.of_string "mx.z"));
      Dns.Rr.make (Dns.Name.of_string "h.z") (Dns.Rr.Hinfo ("vax", "unix"));
      Dns.Rr.make (Dns.Name.of_string "h.z") (Dns.Rr.Cname (Dns.Name.of_string "c.z"));
      Dns.Rr.make (Dns.Name.of_string "h.z") (Dns.Rr.Unspec "\x00\x01binary\xff");
    ]
  in
  let r = Dns.Msg.response ~request:q answers in
  let r' = Dns.Msg.decode (Dns.Msg.encode r) in
  check_bool "roundtrip with all rdata kinds" true (r' = r)

let msg_update_roundtrip () =
  let u =
    Dns.Msg.update_request ~id:3 ~zone:(Dns.Name.of_string "hns-meta")
      [
        Dns.Msg.Add (Dns.Rr.make (Dns.Name.of_string "k.hns-meta") (Dns.Rr.Unspec "v"));
        Dns.Msg.Delete_rrset (Dns.Name.of_string "k2.hns-meta", Dns.Rr.T_unspec);
        Dns.Msg.Delete_rr (Dns.Name.of_string "k3.hns-meta", Dns.Rr.A 5l);
        Dns.Msg.Delete_name (Dns.Name.of_string "k4.hns-meta");
      ]
  in
  let u' = Dns.Msg.decode (Dns.Msg.encode u) in
  check_bool "update roundtrip" true (u' = u)

let msg_soa_roundtrip () =
  let soa =
    {
      Dns.Rr.mname = Dns.Name.of_string "ns.z";
      rname = Dns.Name.of_string "root.z";
      serial = 42l;
      refresh = 1l;
      retry = 2l;
      expire = 3l;
      minimum = 4l;
    }
  in
  let q = Dns.Msg.query ~id:1 (Dns.Name.of_string "z") Dns.Rr.T_soa in
  let r = Dns.Msg.response ~request:q [ Dns.Rr.make (Dns.Name.of_string "z") (Dns.Rr.Soa soa) ] in
  check_bool "soa roundtrip" true (Dns.Msg.decode (Dns.Msg.encode r) = r)

let msg_rejects_garbage () =
  match Dns.Msg.decode "tiny" with
  | exception Dns.Msg.Bad_message _ -> ()
  | _ -> Alcotest.fail "garbage should fail"

(* --- server + resolver integration --- *)

type fixture = {
  w : Helpers.world;
  server : Dns.Server.t;
  zone : Dns.Zone.t;
}

let make_fixture ?(allow_update = false) () =
  let w = make_world ~hosts:2 () in
  let zone =
    Dns.Zone.simple ~origin:(Dns.Name.of_string "cs.washington.edu")
      [
        mk_a "fiji.cs.washington.edu" 0x0A000001l;
        mk_a "tonga.cs.washington.edu" 0x0A000002l;
        Dns.Rr.make ~ttl:60l
          (Dns.Name.of_string "short.cs.washington.edu")
          (Dns.Rr.A 0x0A000003l);
        Dns.Rr.make
          (Dns.Name.of_string "www.cs.washington.edu")
          (Dns.Rr.Cname (Dns.Name.of_string "fiji.cs.washington.edu"));
        Dns.Rr.make
          (Dns.Name.of_string "noaddr.cs.washington.edu")
          (Dns.Rr.Txt [ "only text" ]);
      ]
  in
  let server = Dns.Server.create w.stacks.(0) ~allow_update () in
  Dns.Server.add_zone server zone;
  { w; server; zone }

let resolver_of f =
  Dns.Resolver.create f.w.stacks.(1) ~servers:[ Dns.Server.addr f.server ] ()

let serve f body =
  in_sim f.w (fun () ->
      Dns.Server.start f.server;
      body ())

let dns_query_a () =
  let f = make_fixture () in
  let r =
    serve f (fun () ->
        Dns.Resolver.lookup_a (resolver_of f) (Dns.Name.of_string "fiji.cs.washington.edu"))
  in
  check_bool "A record" true (r = Ok 0x0A000001l)

let dns_cname_chase () =
  let f = make_fixture () in
  let r =
    serve f (fun () ->
        Dns.Resolver.lookup_a (resolver_of f) (Dns.Name.of_string "www.cs.washington.edu"))
  in
  check_bool "follows CNAME" true (r = Ok 0x0A000001l)

let dns_nxdomain_vs_nodata () =
  let f = make_fixture () in
  let nx, nodata =
    serve f (fun () ->
        let r = resolver_of f in
        ( Dns.Resolver.query r (Dns.Name.of_string "ghost.cs.washington.edu") Dns.Rr.T_a,
          Dns.Resolver.query r (Dns.Name.of_string "noaddr.cs.washington.edu") Dns.Rr.T_a ))
  in
  check_bool "nxdomain" true (nx = Error Dns.Resolver.Nxdomain);
  check_bool "no data" true (nodata = Error Dns.Resolver.No_data)

let dns_refuses_foreign_zone () =
  let f = make_fixture () in
  let r =
    serve f (fun () ->
        Dns.Resolver.query (resolver_of f) (Dns.Name.of_string "mit.edu") Dns.Rr.T_a)
  in
  match r with
  | Error (Dns.Resolver.Server_error Dns.Msg.Refused) -> ()
  | _ -> Alcotest.fail "non-authoritative query should be refused"

let dns_resolver_cache_hits () =
  let f = make_fixture () in
  let first, second, hits =
    serve f (fun () ->
        let r = resolver_of f in
        let name = Dns.Name.of_string "fiji.cs.washington.edu" in
        let _, d1 = Workload.Scenario.timed (fun () -> ignore (Dns.Resolver.lookup_a r name)) in
        let _, d2 = Workload.Scenario.timed (fun () -> ignore (Dns.Resolver.lookup_a r name)) in
        (d1, d2, Obs.Metrics.read (Dns.Resolver.metrics r) "dns.resolver.cache_hits"))
  in
  check_bool "first lookup is remote" true (first > 1.0);
  check_float_near "second is free" 0.0 second;
  check_int "one hit" 1 hits

let dns_resolver_ttl_expiry () =
  let f = make_fixture () in
  let served =
    serve f (fun () ->
        let r = resolver_of f in
        let name = Dns.Name.of_string "short.cs.washington.edu" in
        ignore (Dns.Resolver.lookup_a r name);
        (* TTL is 60 s; wait past it in virtual time. *)
        Sim.Engine.sleep 61_000.0;
        ignore (Dns.Resolver.lookup_a r name);
        Dns.Server.queries_served f.server)
  in
  check_int "expired entry refetches" 2 served

let dns_dynamic_update () =
  let f = make_fixture ~allow_update:true () in
  let before, after =
    serve f (fun () ->
        let r = resolver_of f in
        let name = Dns.Name.of_string "new.cs.washington.edu" in
        let before = Dns.Resolver.lookup_a r name in
        (match
           Dns.Update.add_rr (Rpc.Rawrpc.call f.w.stacks.(1) ~dst:(Dns.Server.addr f.server))
             ~zone:(Dns.Name.of_string "cs.washington.edu")
             (mk_a "new.cs.washington.edu" 0x0A0000FFl)
         with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "update failed: %a" Dns.Update.pp_error e);
        (before, Dns.Resolver.lookup_a r name))
  in
  check_bool "absent before" true (before = Error Dns.Resolver.Nxdomain);
  check_bool "visible after" true (after = Ok 0x0A0000FFl)

let dns_update_refused_when_static () =
  let f = make_fixture ~allow_update:false () in
  let r =
    serve f (fun () ->
        Dns.Update.add_rr (Rpc.Rawrpc.call f.w.stacks.(1) ~dst:(Dns.Server.addr f.server))
          ~zone:(Dns.Name.of_string "cs.washington.edu")
          (mk_a "x.cs.washington.edu" 1l))
  in
  check_bool "stock BIND refuses updates" true (r = Error Dns.Update.Refused)

let dns_update_outside_zone () =
  let f = make_fixture ~allow_update:true () in
  let r =
    serve f (fun () ->
        Dns.Update.add_rr (Rpc.Rawrpc.call f.w.stacks.(1) ~dst:(Dns.Server.addr f.server))
          ~zone:(Dns.Name.of_string "mit.edu")
          (mk_a "x.mit.edu" 1l))
  in
  check_bool "not zone" true (r = Error Dns.Update.Not_zone)

let dns_update_delete_ops () =
  let f = make_fixture ~allow_update:true () in
  let gone =
    serve f (fun () ->
        let server = Dns.Server.addr f.server in
        let zone = Dns.Name.of_string "cs.washington.edu" in
        (match
           Dns.Update.send (Rpc.Rawrpc.call f.w.stacks.(1) ~dst:server) ~zone
             [ Dns.Msg.Delete_name (Dns.Name.of_string "fiji.cs.washington.edu") ]
         with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "delete failed: %a" Dns.Update.pp_error e);
        Dns.Resolver.lookup_a (resolver_of f) (Dns.Name.of_string "fiji.cs.washington.edu"))
  in
  check_bool "deleted" true (gone = Error Dns.Resolver.Nxdomain)

let dns_axfr () =
  let f = make_fixture () in
  let records =
    serve f (fun () ->
        match
          Dns.Axfr.fetch f.w.stacks.(1) ~server:(Dns.Server.addr f.server)
            ~zone:(Dns.Name.of_string "cs.washington.edu")
        with
        | Ok rrs -> rrs
        | Error e -> Alcotest.failf "axfr failed: %a" Dns.Axfr.pp_error e)
  in
  check_int "SOA + five records" 6 (List.length records);
  (match records with
  | { Dns.Rr.rdata = Dns.Rr.Soa _; _ } :: _ -> ()
  | _ -> Alcotest.fail "first record must be the SOA")

let dns_axfr_refused_for_unknown_zone () =
  let f = make_fixture () in
  let r =
    serve f (fun () ->
        Dns.Axfr.fetch f.w.stacks.(1) ~server:(Dns.Server.addr f.server)
          ~zone:(Dns.Name.of_string "mit.edu"))
  in
  check_bool "refused" true (r = Error Dns.Axfr.Refused)

let dns_seed_preloads_cache () =
  let f = make_fixture () in
  let served =
    serve f (fun () ->
        let r = resolver_of f in
        Dns.Resolver.seed r (Dns.Name.of_string "fiji.cs.washington.edu") Dns.Rr.T_a
          [ mk_a "fiji.cs.washington.edu" 0x0A000001l ];
        ignore (Dns.Resolver.lookup_a r (Dns.Name.of_string "fiji.cs.washington.edu"));
        Dns.Server.queries_served f.server)
  in
  check_int "no server query after seed" 0 served

let suite =
  [
    Alcotest.test_case "name parse/print" `Quick name_parse_print;
    Alcotest.test_case "name validation" `Quick name_validation;
    Alcotest.test_case "name subdomain" `Quick name_subdomain;
    Alcotest.test_case "name parent/prepend" `Quick name_parent_prepend;
    qtest name_string_roundtrip;
    Alcotest.test_case "db rrset semantics" `Quick db_rrset_semantics;
    Alcotest.test_case "zone rejects foreign" `Quick zone_rejects_foreign_records;
    Alcotest.test_case "zone serial" `Quick zone_serial_bumps;
    Alcotest.test_case "msg query roundtrip" `Quick msg_query_roundtrip;
    Alcotest.test_case "msg response roundtrip" `Quick msg_response_roundtrip;
    Alcotest.test_case "msg update roundtrip" `Quick msg_update_roundtrip;
    Alcotest.test_case "msg soa roundtrip" `Quick msg_soa_roundtrip;
    Alcotest.test_case "msg garbage" `Quick msg_rejects_garbage;
    Alcotest.test_case "query A" `Quick dns_query_a;
    Alcotest.test_case "CNAME chase" `Quick dns_cname_chase;
    Alcotest.test_case "nxdomain vs nodata" `Quick dns_nxdomain_vs_nodata;
    Alcotest.test_case "refuses foreign zone" `Quick dns_refuses_foreign_zone;
    Alcotest.test_case "resolver cache hit" `Quick dns_resolver_cache_hits;
    Alcotest.test_case "resolver TTL expiry" `Quick dns_resolver_ttl_expiry;
    Alcotest.test_case "dynamic update" `Quick dns_dynamic_update;
    Alcotest.test_case "update refused (stock)" `Quick dns_update_refused_when_static;
    Alcotest.test_case "update outside zone" `Quick dns_update_outside_zone;
    Alcotest.test_case "update delete ops" `Quick dns_update_delete_ops;
    Alcotest.test_case "zone transfer" `Quick dns_axfr;
    Alcotest.test_case "axfr refused" `Quick dns_axfr_refused_for_unknown_zone;
    Alcotest.test_case "resolver seed" `Quick dns_seed_preloads_cache;
  ]

(* --- name compression (RFC 1035 4.1.4) --- *)

let compression_shrinks_repeated_names () =
  let name = Dns.Name.of_string "fiji.cs.washington.edu" in
  let q = Dns.Msg.query ~id:1 name Dns.Rr.T_a in
  let answers = List.init 6 (fun i -> Dns.Rr.make name (Dns.Rr.A (Int32.of_int i))) in
  let r = Dns.Msg.response ~request:q answers in
  let compressed = Dns.Msg.encode ~compress:true r in
  let plain = Dns.Msg.encode ~compress:false r in
  check_bool "compressed is smaller" true
    (String.length compressed < String.length plain);
  (* the six answer owner names collapse to 2-byte pointers *)
  check_bool "substantially smaller" true
    (String.length plain - String.length compressed
    >= 6 * (String.length "fiji.cs.washington.edu" - 2));
  check_bool "decodes identically" true
    (Dns.Msg.decode compressed = Dns.Msg.decode plain)

let compression_suffix_sharing () =
  (* different owners sharing a suffix share the tail *)
  let q = Dns.Msg.query ~id:2 (Dns.Name.of_string "a.cs.washington.edu") Dns.Rr.T_any in
  let r =
    Dns.Msg.response ~request:q
      [
        Dns.Rr.make (Dns.Name.of_string "b.cs.washington.edu") (Dns.Rr.A 1l);
        Dns.Rr.make (Dns.Name.of_string "c.b.cs.washington.edu")
          (Dns.Rr.Cname (Dns.Name.of_string "b.cs.washington.edu"));
      ]
  in
  let compressed = Dns.Msg.encode ~compress:true r in
  check_bool "roundtrip through pointers" true (Dns.Msg.decode compressed = r);
  check_bool "smaller than plain" true
    (String.length compressed < String.length (Dns.Msg.encode ~compress:false r))

let compression_pointer_loop_rejected () =
  (* hand-build a message whose qname is a pointer to itself *)
  let wr = Wire.Bytebuf.Wr.create () in
  Wire.Bytebuf.Wr.u16 wr 1;      (* id *)
  Wire.Bytebuf.Wr.u16 wr 0;      (* flags *)
  Wire.Bytebuf.Wr.u16 wr 1;      (* qdcount *)
  Wire.Bytebuf.Wr.u16 wr 0;
  Wire.Bytebuf.Wr.u16 wr 0;
  Wire.Bytebuf.Wr.u16 wr 0;
  (* qname at offset 12: pointer to offset 12 = infinite loop *)
  Wire.Bytebuf.Wr.u8 wr 0xC0;
  Wire.Bytebuf.Wr.u8 wr 12;
  Wire.Bytebuf.Wr.u16 wr 1;      (* qtype A *)
  Wire.Bytebuf.Wr.u16 wr 1;      (* qclass IN *)
  match Dns.Msg.decode (Wire.Bytebuf.Wr.contents wr) with
  | exception Dns.Msg.Bad_message _ -> ()
  | _ -> Alcotest.fail "pointer loop must be rejected"

let compression_reference_vector () =
  (* a known-good compressed message: query for x.y, answer CNAME at
     the same name pointing to y (the qname suffix) *)
  let q = Dns.Msg.query ~id:3 (Dns.Name.of_string "x.y") Dns.Rr.T_cname in
  let r =
    Dns.Msg.response ~request:q
      [ Dns.Rr.make (Dns.Name.of_string "x.y") (Dns.Rr.Cname (Dns.Name.of_string "y")) ]
  in
  let bytes = Dns.Msg.encode ~compress:true r in
  (* qname "x.y" at offset 12 occupies 5 bytes (1x 1y 0); the answer's
     owner is a 2-byte pointer to 12 *)
  check_int "answer owner is a pointer" 0xC0 (Char.code bytes.[21] land 0xC0);
  check_bool "roundtrip" true (Dns.Msg.decode bytes = r)

(* Labels may hold a '.': ["a.b"; "c"] and ["a"; "b.c"] print alike but
   are different names, so the second must not point at the first. *)
let compression_dotted_labels_distinct () =
  let ab_c = Dns.Name.of_labels [ "a.b"; "c" ] in
  let a_bc = Dns.Name.of_labels [ "a"; "b.c" ] in
  let q = Dns.Msg.query ~id:4 ab_c Dns.Rr.T_a in
  let r =
    Dns.Msg.response ~request:q
      [ Dns.Rr.make ab_c (Dns.Rr.A 1l); Dns.Rr.make a_bc (Dns.Rr.A 2l) ]
  in
  match (Dns.Msg.decode (Dns.Msg.encode r)).Dns.Msg.answers with
  | [ first; second ] ->
      check_bool "first owner" true (Dns.Name.equal first.Dns.Rr.name ab_c);
      check (Alcotest.list Alcotest.string) "second owner keeps its labels"
        [ "a"; "b.c" ] (Dns.Name.labels second.Dns.Rr.name)
  | _ -> Alcotest.fail "expected two answers"

let compression_cases =
  [
    Alcotest.test_case "compression shrinks" `Quick compression_shrinks_repeated_names;
    Alcotest.test_case "compression suffixes" `Quick compression_suffix_sharing;
    Alcotest.test_case "compression loop rejected" `Quick
      compression_pointer_loop_rejected;
    Alcotest.test_case "compression reference bytes" `Quick compression_reference_vector;
    Alcotest.test_case "compression keys on labels" `Quick
      compression_dotted_labels_distinct;
  ]

(* --- the one-pass codec --- *)

(* A query whose name is five 60-byte labels: 305 bytes, over the
   255-byte limit. *)
let msg_oversize_name_is_bad_message () =
  let wr = Wire.Bytebuf.Wr.create () in
  List.iter (Wire.Bytebuf.Wr.u16 wr) [ 1; 0; 1; 0; 0; 0 ];
  for _ = 1 to 5 do
    Wire.Bytebuf.Wr.u8 wr 60;
    Wire.Bytebuf.Wr.bytes wr (String.make 60 'x')
  done;
  Wire.Bytebuf.Wr.u8 wr 0;
  Wire.Bytebuf.Wr.u16 wr 1;
  Wire.Bytebuf.Wr.u16 wr 1;
  match Dns.Msg.decode (Wire.Bytebuf.Wr.contents wr) with
  | exception Dns.Msg.Bad_message _ -> ()
  | exception e -> Alcotest.failf "raised %s, not Bad_message" (Printexc.to_string e)
  | _ -> Alcotest.fail "a 305-byte name must be rejected"

(* The six-answer A reply bench/perf times as [wire.msg_codec_ns]. *)
let six_answer_reply () =
  let name = Dns.Name.of_string "samoa.cs.washington.edu." in
  Dns.Msg.response
    ~request:(Dns.Msg.query ~id:7 name Dns.Rr.T_a)
    (List.init 6 (fun i ->
         Dns.Rr.make ~ttl:3600l name (Dns.Rr.A (Int32.of_int (0x0a000001 + i)))))

(* Minor words one call of [f] allocates, after a warm-up call has
   grown the codec's scratch. The reference model in msg_model.ml
   takes 343 words to encode the six-answer reply and 640 to decode it. *)
let words_of f =
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

let msg_encode_allocation () =
  let reply = six_answer_reply () in
  let words = words_of (fun () -> Dns.Msg.encode reply) in
  if words > 96.0 then Alcotest.failf "encoding the six-answer reply allocated %.0f words" words

let msg_decode_allocation () =
  let bytes = Dns.Msg.encode (six_answer_reply ()) in
  let words = words_of (fun () -> Dns.Msg.decode bytes) in
  if words > 300.0 then Alcotest.failf "decoding the six-answer reply allocated %.0f words" words

let codec_cases =
  [
    Alcotest.test_case "oversize name is Bad_message" `Quick msg_oversize_name_is_bad_message;
    Alcotest.test_case "encode allocation" `Quick msg_encode_allocation;
    Alcotest.test_case "decode allocation" `Quick msg_decode_allocation;
  ]

let suite = suite @ compression_cases @ codec_cases

(* --- truncation and TCP fallback --- *)

let big_rrset_fixture () =
  let w = make_world ~hosts:2 () in
  let records =
    List.init 40 (fun i ->
        Dns.Rr.make
          (Dns.Name.of_string "big.cs.washington.edu")
          (Dns.Rr.Txt [ Printf.sprintf "record-%02d-with-some-padding-text" i ]))
  in
  let zone =
    Dns.Zone.simple ~origin:(Dns.Name.of_string "cs.washington.edu") records
  in
  let server = Dns.Server.create w.stacks.(0) () in
  Dns.Server.add_zone server zone;
  (w, server)

let truncation_sets_tc_over_udp () =
  let w, server = big_rrset_fixture () in
  let reply =
    in_sim w (fun () ->
        Dns.Server.start server;
        let request =
          Dns.Msg.encode
            (Dns.Msg.query ~id:9 (Dns.Name.of_string "big.cs.washington.edu") Dns.Rr.T_txt)
        in
        match Rpc.Rawrpc.call w.stacks.(1) ~dst:(Dns.Server.addr server) request with
        | Ok payload -> Dns.Msg.decode payload
        | Error e -> Alcotest.failf "udp query failed: %a" Rpc.Control.pp_error e)
  in
  check_bool "TC set" true reply.Dns.Msg.truncated;
  check_int "answers dropped" 0 (List.length reply.Dns.Msg.answers)

let resolver_falls_back_to_tcp () =
  let w, server = big_rrset_fixture () in
  let answers =
    in_sim w (fun () ->
        Dns.Server.start server;
        let r = Dns.Resolver.create w.stacks.(1) ~servers:[ Dns.Server.addr server ] () in
        match Dns.Resolver.query r (Dns.Name.of_string "big.cs.washington.edu") Dns.Rr.T_txt with
        | Ok rrs -> rrs
        | Error e -> Alcotest.failf "query failed: %a" Dns.Resolver.pp_error e)
  in
  check_int "full rrset via TCP" 40 (List.length answers)

let small_answers_not_truncated () =
  let f = make_fixture () in
  let reply =
    serve f (fun () ->
        let request =
          Dns.Msg.encode
            (Dns.Msg.query ~id:3 (Dns.Name.of_string "fiji.cs.washington.edu") Dns.Rr.T_a)
        in
        match Rpc.Rawrpc.call f.w.stacks.(1) ~dst:(Dns.Server.addr f.server) request with
        | Ok payload -> Dns.Msg.decode payload
        | Error e -> Alcotest.failf "udp query failed: %a" Rpc.Control.pp_error e)
  in
  check_bool "no TC" false reply.Dns.Msg.truncated;
  check_int "answer intact" 1 (List.length reply.Dns.Msg.answers)

let truncation_cases =
  [
    Alcotest.test_case "TC over UDP" `Quick truncation_sets_tc_over_udp;
    Alcotest.test_case "TCP fallback" `Quick resolver_falls_back_to_tcp;
    Alcotest.test_case "small answers intact" `Quick small_answers_not_truncated;
  ]

let suite = suite @ truncation_cases

(* --- delegation and iterative resolution --- *)

(* Parent zone washington.edu on server A delegates cs.washington.edu
   to server B. *)
let delegation_fixture ~with_glue () =
  let w = make_world ~hosts:3 () in
  let parent_server = Dns.Server.create w.stacks.(0) () in
  let child_server = Dns.Server.create w.stacks.(1) () in
  let child_ip = Transport.Netstack.ip w.stacks.(1) in
  let parent_records =
    [
      Dns.Rr.make
        (Dns.Name.of_string "cs.washington.edu")
        (Dns.Rr.Ns (Dns.Name.of_string "ns.cs.washington.edu"));
      mk_a "ee.washington.edu" 0x0A00EE01l;
    ]
    @ (if with_glue then [ mk_a "ns.cs.washington.edu" child_ip ] else [])
  in
  Dns.Server.add_zone parent_server
    (Dns.Zone.simple ~origin:(Dns.Name.of_string "washington.edu") parent_records);
  Dns.Server.add_zone child_server
    (Dns.Zone.simple ~origin:(Dns.Name.of_string "cs.washington.edu")
       [ mk_a "fiji.cs.washington.edu" 0x0A000001l;
         mk_a "ns.cs.washington.edu" child_ip ]);
  (w, parent_server, child_server)

let referral_shape () =
  let w, parent, child = delegation_fixture ~with_glue:true () in
  let reply =
    in_sim w (fun () ->
        Dns.Server.start parent;
        Dns.Server.start child;
        let request =
          Dns.Msg.encode
            (Dns.Msg.query ~id:4 (Dns.Name.of_string "fiji.cs.washington.edu") Dns.Rr.T_a)
        in
        match Rpc.Rawrpc.call w.stacks.(2) ~dst:(Dns.Server.addr parent) request with
        | Ok payload -> Dns.Msg.decode payload
        | Error e -> Alcotest.failf "query failed: %a" Rpc.Control.pp_error e)
  in
  check_int "no answers" 0 (List.length reply.Dns.Msg.answers);
  check_int "NS in authority" 1 (List.length reply.Dns.Msg.authority);
  check_int "glue in additional" 1 (List.length reply.Dns.Msg.additional);
  check_bool "not authoritative" false reply.Dns.Msg.authoritative

let iterative_follows_glue () =
  let w, parent, child = delegation_fixture ~with_glue:true () in
  let r, parent_q, child_q =
    in_sim w (fun () ->
        Dns.Server.start parent;
        Dns.Server.start child;
        let res =
          Dns.Resolver.create w.stacks.(2) ~servers:[ Dns.Server.addr parent ] ()
        in
        let r =
          Dns.Resolver.query_iterative res
            (Dns.Name.of_string "fiji.cs.washington.edu") Dns.Rr.T_a
        in
        (r, Dns.Server.queries_served parent, Dns.Server.queries_served child))
  in
  (match r with
  | Ok [ { Dns.Rr.rdata = Dns.Rr.A 0x0A000001l; _ } ] -> ()
  | _ -> Alcotest.fail "iterative resolution should find the child's record");
  check_int "one referral from the parent" 1 parent_q;
  check_int "one authoritative answer from the child" 1 child_q

let iterative_without_glue () =
  (* The referral names the child server but carries no address; the
     resolver must resolve ns.cs.washington.edu from the roots. The
     parent cannot answer that (it is below the cut!), so this fails
     with SERVFAIL — exactly the classic missing-glue misconfiguration. *)
  let w, parent, child = delegation_fixture ~with_glue:false () in
  let r =
    in_sim w (fun () ->
        Dns.Server.start parent;
        Dns.Server.start child;
        let res =
          Dns.Resolver.create w.stacks.(2) ~servers:[ Dns.Server.addr parent ] ()
        in
        Dns.Resolver.query_iterative res (Dns.Name.of_string "fiji.cs.washington.edu")
          Dns.Rr.T_a)
  in
  check_bool "missing glue is SERVFAIL" true
    (r = Error (Dns.Resolver.Server_error Dns.Msg.Serv_fail))

let iterative_answers_parent_data_directly () =
  let w, parent, child = delegation_fixture ~with_glue:true () in
  let r =
    in_sim w (fun () ->
        Dns.Server.start parent;
        Dns.Server.start child;
        let res =
          Dns.Resolver.create w.stacks.(2) ~servers:[ Dns.Server.addr parent ] ()
        in
        Dns.Resolver.query_iterative res (Dns.Name.of_string "ee.washington.edu")
          Dns.Rr.T_a)
  in
  check_bool "non-delegated name answered by parent" true
    (match r with Ok [ { Dns.Rr.rdata = Dns.Rr.A 0x0A00EE01l; _ } ] -> true | _ -> false)

(* The referral reader: the cut, the smallest NS TTL, the servers in
   order and their glue at the asked port; an answer or a bare SOA is
   not a referral. *)
let referral_reader () =
  let n = Dns.Name.of_string in
  let ns ttl target = Dns.Rr.make ~ttl (n "cs.washington.edu") (Dns.Rr.Ns (n target)) in
  let request = Dns.Msg.query ~id:1 (n "fiji.cs.washington.edu") Dns.Rr.T_a in
  let reply =
    {
      (Dns.Msg.response ~request []) with
      Dns.Msg.authority = [ ns 300l "ns1.cs.washington.edu"; ns 100l "ns2.cs.washington.edu" ];
      additional = [ mk_a "ns2.cs.washington.edu" 2l; mk_a "ns1.cs.washington.edu" 1l ];
    }
  in
  (match Dns.Referral.of_reply reply with
  | None -> Alcotest.fail "NS in authority is a referral"
  | Some r ->
      check_string "cut" "cs.washington.edu" (Dns.Name.to_string r.Dns.Referral.cut);
      check_float_near "smallest NS TTL" 100_000.0 r.Dns.Referral.ttl_ms;
      check_strings "servers in order"
        [ "ns1.cs.washington.edu"; "ns2.cs.washington.edu" ]
        (List.map Dns.Name.to_string r.Dns.Referral.servers);
      check_strings "glue follows the NS order, at the asked port"
        [ "0.0.0.1:5300"; "0.0.0.2:5300" ]
        (List.map Transport.Address.to_string (Dns.Referral.glue r reply ~port:5300)));
  let soa =
    Dns.Rr.make (n "washington.edu")
      (Dns.Rr.Soa
         { Dns.Rr.mname = n "washington.edu"; rname = n "washington.edu"; serial = 1l;
           refresh = 0l; retry = 0l; expire = 0l; minimum = 0l })
  in
  check_bool "a bare SOA is not a referral" true
    (Dns.Referral.of_reply { reply with Dns.Msg.authority = [ soa ] } = None);
  check_bool "an answer is not a referral" true
    (Dns.Referral.of_reply { reply with Dns.Msg.answers = [ mk_a "fiji.cs.washington.edu" 1l ] }
    = None)

(* The cut table: the deepest unexpired cut covering a name wins; an
   expired cut is dropped on the lookup that finds it expired, and the
   name falls back to the next cut up, then to none (the roots). *)
let referral_cut_table () =
  let w = make_world ~hosts:1 () in
  let route, outer, elsewhere, after, held_after, root, held_end =
    in_sim w (fun () ->
        let n = Dns.Name.of_string in
        let cuts = Dns.Referral.cuts () in
        Dns.Referral.remember cuts (n "washington.edu") ~ttl_ms:10_000.0 "parent";
        Dns.Referral.remember cuts (n "cs.washington.edu") ~ttl_ms:1_000.0 "child";
        let route name = Option.map snd (Dns.Referral.covering cuts (n name)) in
        let held () =
          List.map (fun (c, _) -> Dns.Name.to_string c) (Dns.Referral.learned cuts)
        in
        let under_both = route "fiji.cs.washington.edu" in
        let outer = route "ee.washington.edu" in
        let elsewhere = route "mit.edu" in
        Sim.Engine.sleep 1_000.0;
        let after = route "fiji.cs.washington.edu" in
        let held_after = held () in
        Sim.Engine.sleep 9_000.0;
        let root = route "fiji.cs.washington.edu" in
        (under_both, outer, elsewhere, after, held_after, root, held ()))
  in
  check_bool "a name under both cuts routes to the deeper" true (route = Some "child");
  check_bool "a name under the outer cut only" true (outer = Some "parent");
  check_bool "a name under no cut" true (elsewhere = None);
  check_bool "the expired inner cut falls back to the outer" true (after = Some "parent");
  check_strings "the expired cut was dropped" [ "washington.edu" ] held_after;
  check_bool "every cut expired: back to the roots" true (root = None);
  check_strings "nothing held" [] held_end

(* A referral cached by the iterative resolver lives for its NS TTL, but
   never past the one-hour cap: with a two-hour NS TTL, a resolve under
   the cut just inside the hour skips the parent, and one a minute past
   it walks from the parent again. *)
let resolver_referral_cap () =
  let w = make_world ~hosts:3 () in
  let parent_server = Dns.Server.create w.stacks.(0) () in
  let child_server = Dns.Server.create w.stacks.(1) () in
  let child_ip = Transport.Netstack.ip w.stacks.(1) in
  let n = Dns.Name.of_string in
  Dns.Server.add_zone parent_server
    (Dns.Zone.simple ~origin:(n "washington.edu")
       [
         Dns.Rr.make ~ttl:7200l (n "cs.washington.edu") (Dns.Rr.Ns (n "ns.cs.washington.edu"));
         mk_a "ns.cs.washington.edu" child_ip;
       ]);
  Dns.Server.add_zone child_server
    (Dns.Zone.simple ~origin:(n "cs.washington.edu")
       [
         mk_a "fiji.cs.washington.edu" 1l;
         mk_a "samoa.cs.washington.edu" 2l;
         mk_a "june.cs.washington.edu" 3l;
       ]);
  let parent_q, hits =
    in_sim w (fun () ->
        Dns.Server.start parent_server;
        Dns.Server.start child_server;
        let res = Dns.Resolver.create w.stacks.(2) ~servers:[ Dns.Server.addr parent_server ] () in
        let ask name =
          match Dns.Resolver.query_iterative res (n name) Dns.Rr.T_a with
          | Ok _ -> Dns.Server.queries_served parent_server
          | Error e -> Alcotest.failf "%s: %a" name Dns.Resolver.pp_error e
        in
        let t0 = Sim.Engine.time () in
        let first = ask "fiji.cs.washington.edu" in
        Sim.Engine.sleep (t0 +. 3_599_000.0 -. Sim.Engine.time ());
        let inside = ask "samoa.cs.washington.edu" in
        Sim.Engine.sleep 60_000.0;
        let past = ask "june.cs.washington.edu" in
        ( [ first; inside; past ],
          Obs.Metrics.read (Dns.Resolver.metrics res) "dns.resolver.referral_hits" ))
  in
  Alcotest.(check (list int)) "parent queries after each resolve" [ 1; 1; 2 ] parent_q;
  check_int "one referral hit, inside the hour" 1 hits

let delegation_cases =
  [
    Alcotest.test_case "referral reader" `Quick referral_reader;
    Alcotest.test_case "referral cut table" `Quick referral_cut_table;
    Alcotest.test_case "referral cut capped at an hour" `Quick resolver_referral_cap;
    Alcotest.test_case "referral shape" `Quick referral_shape;
    Alcotest.test_case "iterative follows glue" `Quick iterative_follows_glue;
    Alcotest.test_case "missing glue" `Quick iterative_without_glue;
    Alcotest.test_case "parent data direct" `Quick iterative_answers_parent_data_directly;
  ]

let suite = suite @ delegation_cases
