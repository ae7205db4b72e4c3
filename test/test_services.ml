(* Tests for the HCS network services (filing, mail, remote
   computation) built on HNS + HRPC. *)

open Helpers

let scn = lazy (Workload.Scenario.build ())

(* Service installation mutates the scenario's name spaces; share one
   installed world across these tests. *)
let installed =
  lazy
    (let s = Lazy.force scn in
     let inst = Workload.Scenario.in_sim s (fun () -> Services.Setup.install s) in
     (s, inst))

let with_services f =
  let s, inst = Lazy.force installed in
  Workload.Scenario.in_sim s (fun () ->
      let hns = Workload.Scenario.new_hns s ~on:s.client_stack in
      f s inst hns)

let expect_ok ~msg = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" msg (Format.asprintf "%a" Services.Access.pp_error e)

(* --- filing --- *)

let filing_fetch_unix () =
  let data =
    with_services (fun s _ hns ->
        let filing = Services.Filing.create hns in
        expect_ok ~msg:"fetch"
          (Services.Filing.fetch filing (Services.Setup.unix_file_name s "report.tex")))
  in
  check_bool "contents" true (data = List.assoc "report.tex" Services.Setup.unix_files)

let filing_fetch_xde_via_courier () =
  (* Same client code; the file happens to live on the Xerox machine
     behind Courier RPC and the Clearinghouse. *)
  let data =
    with_services (fun s _ hns ->
        let filing = Services.Filing.create hns in
        expect_ok ~msg:"fetch xde"
          (Services.Filing.fetch filing (Services.Setup.xde_file_name s "notes")))
  in
  check_bool "contents" true (data = List.assoc "notes" Services.Setup.xde_files)

let filing_store_roundtrip () =
  with_services (fun s inst hns ->
      let filing = Services.Filing.create hns in
      let name = Services.Setup.unix_file_name s "report.tex" in
      expect_ok ~msg:"store" (Services.Filing.store filing name "revised contents");
      let back = expect_ok ~msg:"refetch" (Services.Filing.fetch filing name) in
      check_string "roundtrip" "revised contents" back;
      (* The write really landed in the Unix server's local store —
         direct access, no shadow copies. *)
      check_bool "authoritative store updated" true
        (Services.File_server.get inst.Services.Setup.unix_fs ~name:"report.tex"
        = Some "revised contents"))

let filing_missing_file () =
  with_services (fun s _ hns ->
      let filing = Services.Filing.create hns in
      (* location record exists only for seeded files *)
      match
        Services.Filing.fetch filing (Services.Setup.unix_file_name s "ghost.txt")
      with
      | Error (Services.Access.Name_error _) -> ()
      | Ok _ -> Alcotest.fail "ghost file should not fetch"
      | Error e ->
          Alcotest.failf "wrong error: %a" Services.Access.pp_error e)

let filing_list () =
  let files =
    with_services (fun s _ hns ->
        let filing = Services.Filing.create hns in
        expect_ok ~msg:"list"
          (Services.Filing.list_at filing (Services.Setup.unix_file_name s "todo")))
  in
  check_bool "todo listed" true (List.mem "todo" files);
  check_bool "kernel.o listed" true (List.mem "kernel.o" files)

let filing_binding_cache () =
  (* The second fetch from the same server reuses the imported
     binding: no second FindNSM/NSM exchange. *)
  let d1, d2 =
    with_services (fun s _ hns ->
        let filing = Services.Filing.create hns in
        let (_ : string), d1 =
          Workload.Scenario.timed (fun () ->
              expect_ok ~msg:"fetch1"
                (Services.Filing.fetch filing (Services.Setup.unix_file_name s "todo")))
        in
        let (_ : string), d2 =
          Workload.Scenario.timed (fun () ->
              expect_ok ~msg:"fetch2"
                (Services.Filing.fetch filing
                   (Services.Setup.unix_file_name s "kernel.o")))
        in
        (d1, d2))
  in
  check_bool "second fetch much cheaper" true (d2 < d1 /. 2.0)

(* --- mail --- *)

let mail_send_and_read () =
  with_services (fun s inst hns ->
      let mail = Services.Mail.create hns ~from:"schwartz@cs" in
      let site =
        expect_ok ~msg:"send"
          (Services.Mail.send mail
             ~recipient:(Services.Setup.user_name s "alice")
             ~subject:"hns" ~body:"measurements attached")
      in
      check_bool "delivered to samoa" true
        (String.length site.Hns.Hns_name.name > 0);
      let inbox =
        expect_ok ~msg:"read"
          (Services.Mail.read_mailbox mail ~user:(Services.Setup.user_name s "alice"))
      in
      (match inbox with
      | [ m ] ->
          check_string "from" "schwartz@cs" m.Services.Mailbox_server.from;
          check_string "subject" "hns" m.Services.Mailbox_server.subject
      | l -> Alcotest.failf "expected 1 message, got %d" (List.length l));
      check_bool "server-side mailbox agrees" true
        (List.length
           (Services.Mailbox_server.mailbox inst.Services.Setup.mailhub ~user:"alice")
        >= 1))

let mail_routes_to_other_site () =
  with_services (fun s inst hns ->
      let mail = Services.Mail.create hns ~from:"zahorjan@cs" in
      ignore
        (expect_ok ~msg:"send to dave"
           (Services.Mail.send mail
              ~recipient:(Services.Setup.user_name s "dave")
              ~subject:"annex" ~body:"hello"));
      check_bool "annex received it" true
        (List.length
           (Services.Mailbox_server.mailbox inst.Services.Setup.mail_annex ~user:"dave")
        >= 1))

let mail_unknown_user_bounces () =
  with_services (fun s _ hns ->
      let mail = Services.Mail.create hns ~from:"x@y" in
      match
        Services.Mail.send mail
          ~recipient:(Services.Setup.user_name s "mallory")
          ~subject:"spam" ~body:"spam"
      with
      | Error (Services.Access.Name_error _) -> () (* no mailbox record at all *)
      | Error (Services.Access.Service_error _) -> ()
      | Ok _ -> Alcotest.fail "unknown user must not deliver"
      | Error e -> Alcotest.failf "wrong error: %a" Services.Access.pp_error e)

(* --- rexec --- *)

let rexec_runs_remotely () =
  with_services (fun s _ hns ->
      let rexec = Services.Rexec.create hns in
      let host =
        Hns.Hns_name.make ~context:s.bind_context
          ~name:(Printf.sprintf "samoa.%s" s.zone)
      in
      let out =
        expect_ok ~msg:"hostname"
          (Services.Rexec.run rexec ~host ~command:"hostname" ~args:[])
      in
      check_int "status" 0 out.Services.Rexec_server.status;
      check_string "runs on the right machine" (Printf.sprintf "samoa.%s" s.zone)
        out.Services.Rexec_server.output;
      let echo =
        expect_ok ~msg:"echo"
          (Services.Rexec.run rexec ~host ~command:"echo" ~args:[ "a"; "b" ])
      in
      check_string "echo output" "a b" echo.Services.Rexec_server.output)

let rexec_unknown_command_status () =
  with_services (fun s _ hns ->
      let rexec = Services.Rexec.create hns in
      let host =
        Hns.Hns_name.make ~context:s.bind_context
          ~name:(Printf.sprintf "samoa.%s" s.zone)
      in
      let out =
        expect_ok ~msg:"run"
          (Services.Rexec.run rexec ~host ~command:"rm" ~args:[ "-rf" ])
      in
      check_int "127 like a shell" 127 out.Services.Rexec_server.status)

let rexec_charges_cpu () =
  let d =
    with_services (fun s _ hns ->
        let rexec = Services.Rexec.create hns in
        let host =
          Hns.Hns_name.make ~context:s.bind_context
            ~name:(Printf.sprintf "vanuatu.%s" s.zone)
        in
        ignore
          (expect_ok ~msg:"warm binding"
             (Services.Rexec.run rexec ~host ~command:"hostname" ~args:[]));
        let (), d =
          Workload.Scenario.timed (fun () ->
              ignore
                (expect_ok ~msg:"compile"
                   (Services.Rexec.run rexec ~host ~command:"compile"
                      ~args:[ "hns.c" ])))
        in
        d)
  in
  check_bool "compile dominated by its 500ms CPU" true (d >= 500.0 && d < 600.0)

let suite =
  [
    Alcotest.test_case "filing: fetch (Unix/SunRPC)" `Quick filing_fetch_unix;
    Alcotest.test_case "filing: fetch (XDE/Courier)" `Quick filing_fetch_xde_via_courier;
    Alcotest.test_case "filing: store roundtrip" `Quick filing_store_roundtrip;
    Alcotest.test_case "filing: missing file" `Quick filing_missing_file;
    Alcotest.test_case "filing: list" `Quick filing_list;
    Alcotest.test_case "filing: binding cache" `Quick filing_binding_cache;
    Alcotest.test_case "mail: send and read" `Quick mail_send_and_read;
    Alcotest.test_case "mail: second site" `Quick mail_routes_to_other_site;
    Alcotest.test_case "mail: unknown user" `Quick mail_unknown_user_bounces;
    Alcotest.test_case "rexec: remote run" `Quick rexec_runs_remotely;
    Alcotest.test_case "rexec: unknown command" `Quick rexec_unknown_command_status;
    Alcotest.test_case "rexec: cpu accounting" `Quick rexec_charges_cpu;
  ]

(* --- the store-and-forward MTA --- *)

let mta_delivers_queued_mail () =
  with_services (fun s inst hns ->
      let mta = Services.Mta.create hns ~from:"mta@hcs" () in
      Services.Mta.start mta;
      Services.Mta.submit mta ~recipient:(Services.Setup.user_name s "alice")
        ~subject:"q1" ~body:"one";
      Services.Mta.submit mta ~recipient:(Services.Setup.user_name s "dave")
        ~subject:"q2" ~body:"two";
      Sim.Engine.sleep 5_000.0;
      check_int "both delivered" 2 (Obs.Metrics.read (Services.Mta.metrics mta) "services.mta.delivered");
      check_int "queue empty" 0 (Services.Mta.queue_length mta);
      check_bool "alice's box has it" true
        (List.exists
           (fun (m : Services.Mailbox_server.message) -> m.subject = "q1")
           (Services.Mailbox_server.mailbox inst.Services.Setup.mailhub ~user:"alice"));
      Services.Mta.stop mta)

let mta_retries_through_outage () =
  with_services (fun s inst hns ->
      let mta =
        Services.Mta.create hns ~from:"mta@hcs" ~retry_interval_ms:20_000.0
          ~max_attempts:10 ()
      in
      Services.Mta.start mta;
      (* the mailbox site is down when the message is submitted *)
      Services.Mailbox_server.stop inst.Services.Setup.mailhub;
      Services.Mta.submit mta ~recipient:(Services.Setup.user_name s "bob")
        ~subject:"patience" ~body:"retry me";
      Sim.Engine.sleep 60_000.0;
      check_int "not delivered during the outage" 0 (Obs.Metrics.read (Services.Mta.metrics mta) "services.mta.delivered");
      check_bool "still queued, retrying" true (Obs.Metrics.read (Services.Mta.metrics mta) "services.mta.attempts" >= 2);
      (* the site returns *)
      Services.Mailbox_server.start inst.Services.Setup.mailhub;
      Sim.Engine.sleep 120_000.0;
      check_int "delivered after recovery" 1 (Obs.Metrics.read (Services.Mta.metrics mta) "services.mta.delivered");
      check_int "queue drained" 0 (Services.Mta.queue_length mta);
      Services.Mta.stop mta)

let mta_bounces_unknown_user () =
  with_services (fun s _ hns ->
      let mta = Services.Mta.create hns ~from:"mta@hcs" () in
      Services.Mta.start mta;
      Services.Mta.submit mta ~recipient:(Services.Setup.user_name s "alice")
        ~subject:"good" ~body:"x";
      Services.Mta.submit mta ~recipient:(Services.Setup.user_name s "mallory")
        ~subject:"bad" ~body:"y";
      Sim.Engine.sleep 5_000.0;
      check_int "one delivered" 1 (Obs.Metrics.read (Services.Mta.metrics mta) "services.mta.delivered");
      (match Services.Mta.bounces mta with
      | [ (recipient, _) ] ->
          check_bool "mallory bounced" true
            (String.length recipient.Hns.Hns_name.name > 0)
      | l -> Alcotest.failf "expected one bounce, got %d" (List.length l));
      Services.Mta.stop mta)

let mta_gives_up_eventually () =
  with_services (fun s inst hns ->
      let mta =
        Services.Mta.create hns ~from:"mta@hcs" ~retry_interval_ms:10_000.0
          ~max_attempts:3 ()
      in
      Services.Mta.start mta;
      Services.Mailbox_server.stop inst.Services.Setup.mail_annex;
      Services.Mta.submit mta ~recipient:(Services.Setup.user_name s "dave")
        ~subject:"doomed" ~body:"z";
      Sim.Engine.sleep 120_000.0;
      check_int "bounced after max attempts" 1 (List.length (Services.Mta.bounces mta));
      check_int "nothing delivered" 0 (Obs.Metrics.read (Services.Mta.metrics mta) "services.mta.delivered");
      Services.Mailbox_server.start inst.Services.Setup.mail_annex;
      Services.Mta.stop mta)

let mta_cases =
  [
    Alcotest.test_case "mta delivers" `Quick mta_delivers_queued_mail;
    Alcotest.test_case "mta retries outage" `Quick mta_retries_through_outage;
    Alcotest.test_case "mta bounces" `Quick mta_bounces_unknown_user;
    Alcotest.test_case "mta gives up" `Quick mta_gives_up_eventually;
  ]

let suite = suite @ mta_cases
