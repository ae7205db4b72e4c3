(* Tests for the Clearinghouse reproduction. *)

open Helpers

let name_parsing () =
  let n = Clearinghouse.Ch_name.of_string "Printer:CS:UW" in
  check_string "case folded" "printer:cs:uw" (Clearinghouse.Ch_name.to_string n);
  check_bool "equal ignoring case" true
    (Clearinghouse.Ch_name.equal n (Clearinghouse.Ch_name.of_string "printer:cs:uw"));
  (match Clearinghouse.Ch_name.of_string "two:parts" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "two parts should fail");
  check_bool "same domain" true
    (Clearinghouse.Ch_name.same_domain n (Clearinghouse.Ch_name.of_string "other:cs:uw"))

let name_value_roundtrip () =
  let n = Clearinghouse.Ch_name.of_string "svc:parc:xerox" in
  check_bool "value roundtrip" true
    (Clearinghouse.Ch_name.equal n
       (Clearinghouse.Ch_name.of_value (Clearinghouse.Ch_name.to_value n)))

let db_properties () =
  let db = Clearinghouse.Ch_db.create () in
  let obj = Clearinghouse.Ch_name.of_string "printer:parc:xerox" in
  check_bool "create" true (Clearinghouse.Ch_db.create_object db obj);
  check_bool "create twice" false (Clearinghouse.Ch_db.create_object db obj);
  Clearinghouse.Ch_db.store db obj (Clearinghouse.Property.item 4 "addr");
  Clearinghouse.Ch_db.store db obj (Clearinghouse.Property.item 4 "addr2");
  check_bool "replace semantics" true
    (Clearinghouse.Ch_db.retrieve db obj 4 = Some (Clearinghouse.Property.Item "addr2"));
  check_bool "missing prop" true (Clearinghouse.Ch_db.retrieve db obj 9 = None);
  check_bool "delete" true (Clearinghouse.Ch_db.delete_object db obj);
  check_bool "gone" false (Clearinghouse.Ch_db.exists db obj)

let db_groups () =
  let db = Clearinghouse.Ch_db.create () in
  let list_ = Clearinghouse.Ch_name.of_string "staff:parc:xerox" in
  let alice = Clearinghouse.Ch_name.of_string "alice:parc:xerox" in
  let bob = Clearinghouse.Ch_name.of_string "bob:parc:xerox" in
  Clearinghouse.Ch_db.add_member db list_ 3 alice;
  Clearinghouse.Ch_db.add_member db list_ 3 bob;
  Clearinghouse.Ch_db.add_member db list_ 3 alice (* idempotent *);
  check_int "two members" 2 (List.length (Clearinghouse.Ch_db.members db list_ 3));
  Clearinghouse.Ch_db.store db list_ (Clearinghouse.Property.item 5 "x");
  match Clearinghouse.Ch_db.add_member db list_ 5 alice with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "add_member on item property should fail"

let db_list_objects () =
  let db = Clearinghouse.Ch_db.create () in
  List.iter
    (fun s -> ignore (Clearinghouse.Ch_db.create_object db (Clearinghouse.Ch_name.of_string s)))
    [ "b:parc:xerox"; "a:parc:xerox"; "c:webster:xerox" ];
  check (Alcotest.list Alcotest.string) "sorted, domain-scoped" [ "a"; "b" ]
    (Clearinghouse.Ch_db.list_objects db ~domain:"parc" ~org:"xerox")

(* --- server/client integration --- *)

let cred =
  { Clearinghouse.Ch_proto.user = Clearinghouse.Ch_name.of_string "hcs:parc:xerox";
    password = "pw" }

let with_ch ?(auth_ms = 0.0) ?(disk_ms = 0.0) f =
  let w = make_world ~hosts:2 () in
  in_sim w (fun () ->
      let ch = Clearinghouse.Ch_server.create w.stacks.(0) ~auth_ms ~disk_ms () in
      Clearinghouse.Ch_server.add_user ch cred.Clearinghouse.Ch_proto.user
        ~password:cred.Clearinghouse.Ch_proto.password;
      Clearinghouse.Ch_server.start ch;
      let client =
        Clearinghouse.Ch_client.connect w.stacks.(1)
          ~server:(Clearinghouse.Ch_server.addr ch) ~credentials:cred
      in
      let r = f ch client in
      Clearinghouse.Ch_client.close client;
      r)

let ch_store_retrieve () =
  let r =
    with_ch (fun _ client ->
        let obj = Clearinghouse.Ch_name.of_string "printsrv:parc:xerox" in
        ignore (get_ok ~msg:"create" (Clearinghouse.Ch_client.create_object client obj));
        get_ok ~msg:"store"
          (Clearinghouse.Ch_client.store_item client obj ~prop:10 "binding-bytes");
        ( Clearinghouse.Ch_client.retrieve_item client obj ~prop:10,
          Clearinghouse.Ch_client.retrieve_item client obj ~prop:11 ))
  in
  check_bool "retrieve" true (fst r = Ok "binding-bytes");
  check_bool "missing prop" true (snd r = Error Clearinghouse.Ch_client.Not_found)

let ch_members_remote () =
  let members =
    with_ch (fun _ client ->
        let grp = Clearinghouse.Ch_name.of_string "staff:parc:xerox" in
        get_ok ~msg:"add1"
          (Clearinghouse.Ch_client.add_member client grp ~prop:3
             (Clearinghouse.Ch_name.of_string "alice:parc:xerox"));
        get_ok ~msg:"add2"
          (Clearinghouse.Ch_client.add_member client grp ~prop:3
             (Clearinghouse.Ch_name.of_string "bob:parc:xerox"));
        get_ok ~msg:"members" (Clearinghouse.Ch_client.retrieve_members client grp ~prop:3))
  in
  check_int "two members over the wire" 2 (List.length members)

let ch_list_objects_remote () =
  let names =
    with_ch (fun ch client ->
        let db = Clearinghouse.Ch_server.db ch in
        ignore (Clearinghouse.Ch_db.create_object db (Clearinghouse.Ch_name.of_string "x:parc:xerox"));
        ignore (Clearinghouse.Ch_db.create_object db (Clearinghouse.Ch_name.of_string "y:parc:xerox"));
        get_ok ~msg:"list" (Clearinghouse.Ch_client.list_objects client ~domain:"parc" ~org:"xerox"))
  in
  check (Alcotest.list Alcotest.string) "listed" [ "x"; "y" ] names

let ch_auth_failure () =
  let w = make_world ~hosts:2 () in
  let r =
    in_sim w (fun () ->
        let ch = Clearinghouse.Ch_server.create w.stacks.(0) () in
        Clearinghouse.Ch_server.add_user ch
          (Clearinghouse.Ch_name.of_string "hcs:parc:xerox")
          ~password:"correct";
        Clearinghouse.Ch_server.start ch;
        let client =
          Clearinghouse.Ch_client.connect w.stacks.(1)
            ~server:(Clearinghouse.Ch_server.addr ch)
            ~credentials:
              { Clearinghouse.Ch_proto.user = Clearinghouse.Ch_name.of_string "hcs:parc:xerox";
                password = "wrong" }
        in
        let r =
          Clearinghouse.Ch_client.retrieve_item client
            (Clearinghouse.Ch_name.of_string "any:parc:xerox") ~prop:4
        in
        Clearinghouse.Ch_client.close client;
        r)
  in
  match r with
  | Error (Clearinghouse.Ch_client.Rpc_error (Rpc.Control.Protocol_error m)) ->
      check_bool "mentions auth" true
        (String.length m > 0)
  | _ -> Alcotest.fail "bad credentials should abort"

let ch_costs_auth_and_disk () =
  let elapsed =
    with_ch ~auth_ms:60.0 ~disk_ms:85.0 (fun _ client ->
        let obj = Clearinghouse.Ch_name.of_string "o:parc:xerox" in
        get_ok ~msg:"store" (Clearinghouse.Ch_client.store_item client obj ~prop:4 "v");
        let _, d =
          Workload.Scenario.timed (fun () ->
              ignore (Clearinghouse.Ch_client.retrieve_item client obj ~prop:4))
        in
        d)
  in
  (* auth + disk dominate; network adds a little *)
  check_bool "lookup cost near 145-160ms" true (elapsed > 144.0 && elapsed < 165.0);
  check_bool "slower than BIND's 27ms" true (elapsed > 27.0)

let ch_access_counter () =
  let n =
    with_ch (fun ch client ->
        let obj = Clearinghouse.Ch_name.of_string "o:parc:xerox" in
        get_ok ~msg:"store" (Clearinghouse.Ch_client.store_item client obj ~prop:4 "v");
        ignore (Clearinghouse.Ch_client.retrieve_item client obj ~prop:4);
        Obs.Metrics.read (Clearinghouse.Ch_server.metrics ch) "clearinghouse.server.accesses")
  in
  check_int "two authenticated accesses" 2 n

let suite =
  [
    Alcotest.test_case "name parsing" `Quick name_parsing;
    Alcotest.test_case "name value roundtrip" `Quick name_value_roundtrip;
    Alcotest.test_case "db properties" `Quick db_properties;
    Alcotest.test_case "db groups" `Quick db_groups;
    Alcotest.test_case "db list objects" `Quick db_list_objects;
    Alcotest.test_case "store/retrieve" `Quick ch_store_retrieve;
    Alcotest.test_case "group membership remote" `Quick ch_members_remote;
    Alcotest.test_case "list objects remote" `Quick ch_list_objects_remote;
    Alcotest.test_case "auth failure" `Quick ch_auth_failure;
    Alcotest.test_case "auth+disk costs" `Quick ch_costs_auth_and_disk;
    Alcotest.test_case "access counter" `Quick ch_access_counter;
  ]
