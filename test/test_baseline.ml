(* Tests for the comparison schemes: replicated local files and the
   Clearinghouse reregistration baseline. *)

open Helpers

let scn = lazy (Workload.Scenario.build ())

let sample_binding port =
  Hrpc.Binding.make ~suite:Hrpc.Component.sunrpc_suite
    ~server:(Transport.Address.make 0x0A000042l port) ~prog:(port + 1) ~vers:1

let localfile_roundtrip () =
  let lf = Baseline.Localfile.create () in
  Baseline.Localfile.register lf ~service:"svc" ~host:"h1" (sample_binding 100);
  Baseline.Localfile.register lf ~service:"svc" ~host:"h2" (sample_binding 200);
  (match Baseline.Localfile.import lf ~service:"svc" ~host:"h2" with
  | Ok b -> check_bool "right entry" true (Hrpc.Binding.equal b (sample_binding 200))
  | Error m -> Alcotest.failf "import failed: %s" m);
  check_int "two entries" 2 (Baseline.Localfile.entry_count lf)

let localfile_replace_entry () =
  let lf = Baseline.Localfile.create () in
  Baseline.Localfile.register lf ~service:"svc" ~host:"h" (sample_binding 1);
  Baseline.Localfile.register lf ~service:"svc" ~host:"h" (sample_binding 2);
  check_int "replaced, not appended" 1 (Baseline.Localfile.entry_count lf);
  match Baseline.Localfile.import lf ~service:"svc" ~host:"h" with
  | Ok b -> check_bool "latest wins" true (Hrpc.Binding.equal b (sample_binding 2))
  | Error m -> Alcotest.failf "import failed: %s" m

let localfile_missing () =
  let lf = Baseline.Localfile.create () in
  match Baseline.Localfile.import lf ~service:"nope" ~host:"h" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing entry should fail"

let localfile_staleness () =
  (* The reregistration problem: a file copy does not see a change
     until the next sweep. *)
  let lf = Baseline.Localfile.create () in
  Baseline.Localfile.replace_all lf [ ("svc", "h", sample_binding 1) ];
  let authoritative = sample_binding 2 in
  (* the service moved ports; the file still says port 1 *)
  (match Baseline.Localfile.import lf ~service:"svc" ~host:"h" with
  | Ok stale -> check_bool "stale until sweep" false (Hrpc.Binding.equal stale authoritative)
  | Error m -> Alcotest.failf "import failed: %s" m);
  Baseline.Localfile.replace_all lf [ ("svc", "h", authoritative) ];
  match Baseline.Localfile.import lf ~service:"svc" ~host:"h" with
  | Ok fresh -> check_bool "fresh after sweep" true (Hrpc.Binding.equal fresh authoritative)
  | Error m -> Alcotest.failf "import failed: %s" m

let localfile_cost_scales_with_population () =
  let scn = Lazy.force scn in
  let small, large =
    Workload.Scenario.in_sim scn (fun () ->
        let lf =
          Baseline.Localfile.create ~file_read_ms:10.0 ~parse_per_entry_ms:1.0 ()
        in
        Baseline.Localfile.replace_all lf [ ("svc", "h", sample_binding 1) ];
        let _, small =
          Workload.Scenario.timed (fun () ->
              ignore (Baseline.Localfile.import lf ~service:"svc" ~host:"h"))
        in
        Baseline.Localfile.replace_all lf
          (("svc", "h", sample_binding 1)
          :: List.init 99 (fun i -> (Printf.sprintf "f%d" i, "h", sample_binding i)));
        let _, large =
          Workload.Scenario.timed (fun () ->
              ignore (Baseline.Localfile.import lf ~service:"svc" ~host:"h"))
        in
        (small, large))
  in
  check_bool "grows with entries" true (large > small +. 50.0)

let rereg_import () =
  let scn = Lazy.force scn in
  let r =
    Workload.Scenario.in_sim scn (fun () ->
        Baseline.Rereg_ch.import scn.rereg ~service:scn.service_name)
  in
  match r with
  | Ok b -> check_bool "imported" true (Hrpc.Binding.equal b scn.expected_sun_binding)
  | Error e -> Alcotest.failf "rereg import failed: %a" Baseline.Rereg_ch.pp_error e

let rereg_missing () =
  let scn = Lazy.force scn in
  let r =
    Workload.Scenario.in_sim scn (fun () ->
        Baseline.Rereg_ch.import scn.rereg ~service:"never-registered")
  in
  check_bool "not registered" true (r = Error Baseline.Rereg_ch.Not_registered)

let rereg_sweep_costs_grow () =
  (* The "reregistration cost is one that continues without end": a
     sweep of N services costs ~N Clearinghouse writes. *)
  let scn = Lazy.force scn in
  let one, ten =
    Workload.Scenario.in_sim scn (fun () ->
        let entries n = List.init n (fun i -> (Printf.sprintf "swp%d" i, sample_binding i)) in
        let _, one =
          Workload.Scenario.timed (fun () ->
              ignore (Baseline.Rereg_ch.reregister_sweep scn.rereg (entries 1)))
        in
        let _, ten =
          Workload.Scenario.timed (fun () ->
              ignore (Baseline.Rereg_ch.reregister_sweep scn.rereg (entries 10)))
        in
        (one, ten))
  in
  check_bool "10 entries cost ~10x" true (ten > 7.0 *. one)

let suite =
  [
    Alcotest.test_case "localfile roundtrip" `Quick localfile_roundtrip;
    Alcotest.test_case "localfile replace" `Quick localfile_replace_entry;
    Alcotest.test_case "localfile missing" `Quick localfile_missing;
    Alcotest.test_case "localfile staleness" `Quick localfile_staleness;
    Alcotest.test_case "localfile cost scaling" `Quick localfile_cost_scales_with_population;
    Alcotest.test_case "rereg import" `Quick rereg_import;
    Alcotest.test_case "rereg missing" `Quick rereg_missing;
    Alcotest.test_case "rereg sweep cost" `Quick rereg_sweep_costs_grow;
  ]

(* --- sendmail rewriting rules (Section 4 related work) --- *)

let route_ok rules addr =
  match Baseline.Sendmail_rules.route rules addr with
  | Ok d -> d
  | Error m -> Alcotest.failf "route %S failed: %s" addr m

let sendmail_routes_classic_forms () =
  let rules = Baseline.Sendmail_rules.classic () in
  let d = route_ok rules "schwartz@june.cs.washington.edu" in
  check_string "internet network" "internet" d.Baseline.Sendmail_rules.network;
  check_string "internet site" "june.cs.washington.edu" d.Baseline.Sendmail_rules.site;
  let d = route_ok rules "mike@decvax.uucp" in
  check_string "uucp network" "uucp" d.Baseline.Sendmail_rules.network;
  check_string "uucp site" "decvax" d.Baseline.Sendmail_rules.site;
  let d = route_ok rules "isi-vaxa!fred" in
  check_string "bang rewritten to uucp" "uucp" d.Baseline.Sendmail_rules.network;
  check_string "bang site" "isi-vaxa" d.Baseline.Sendmail_rules.site;
  check_string "bang user" "fred" d.Baseline.Sendmail_rules.user;
  let d = route_ok rules "birrell.pa@gv" in
  check_string "grapevine" "grapevine" d.Baseline.Sendmail_rules.network

let sendmail_unparsable () =
  let rules = Baseline.Sendmail_rules.classic () in
  match Baseline.Sendmail_rules.route rules "just-a-name" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "no rule should match a bare token"

let sendmail_syntactic_misrouting () =
  (* The hazard the paper calls out: semantics divined from syntax.
     A new network (bitnet) arrives; before anyone edits the ruleset,
     its addresses SILENTLY match the default internet rule. *)
  let rules = Baseline.Sendmail_rules.classic () in
  let d = route_ok rules "jose@yalevm.bitnet" in
  check_string "misrouted, no error" "internet" d.Baseline.Sendmail_rules.network;
  (* The fix must be inserted ahead of the default rule — on every
     host that runs a mailer. *)
  let patched =
    Baseline.Sendmail_rules.create
      [
        Baseline.Sendmail_rules.rewrite_rule ~pattern:"$+ ! $+" ~into:"$2@$1.uucp";
        Baseline.Sendmail_rules.resolve_rule ~pattern:"$+ @ $+ . bitnet"
          ~network:"bitnet" ~site:"$2" ~user:"$1";
        Baseline.Sendmail_rules.resolve_rule ~pattern:"$+ @ $+ . uucp" ~network:"uucp"
          ~site:"$2" ~user:"$1";
        Baseline.Sendmail_rules.resolve_rule ~pattern:"$+ @ $+" ~network:"internet"
          ~site:"$2" ~user:"$1";
      ]
  in
  let d = route_ok patched "jose@yalevm.bitnet" in
  check_string "routed after the ruleset edit" "bitnet" d.Baseline.Sendmail_rules.network

let sendmail_rewrite_loop_guard () =
  let looping =
    Baseline.Sendmail_rules.create
      [ Baseline.Sendmail_rules.rewrite_rule ~pattern:"$+ @ $+" ~into:"$1@$2" ]
  in
  match Baseline.Sendmail_rules.route looping "a@b" with
  | Error m -> check_bool "loop detected" true (String.length m > 0)
  | Ok _ -> Alcotest.fail "self-rewrite must hit the loop guard"

let sendmail_rule_order_matters () =
  (* First match wins: with the default rule FIRST, specific networks
     never fire — administration is order-sensitive. *)
  let misordered =
    Baseline.Sendmail_rules.create
      [
        Baseline.Sendmail_rules.resolve_rule ~pattern:"$+ @ $+" ~network:"internet"
          ~site:"$2" ~user:"$1";
        Baseline.Sendmail_rules.resolve_rule ~pattern:"$+ @ $+ . uucp" ~network:"uucp"
          ~site:"$2" ~user:"$1";
      ]
  in
  let d = route_ok misordered "mike@decvax.uucp" in
  check_string "shadowed by the default" "internet" d.Baseline.Sendmail_rules.network

let baseline_extra =
  [
    Alcotest.test_case "sendmail classic routes" `Quick sendmail_routes_classic_forms;
    Alcotest.test_case "sendmail unparsable" `Quick sendmail_unparsable;
    Alcotest.test_case "sendmail syntactic misrouting" `Quick
      sendmail_syntactic_misrouting;
    Alcotest.test_case "sendmail loop guard" `Quick sendmail_rewrite_loop_guard;
    Alcotest.test_case "sendmail rule order" `Quick sendmail_rule_order_matters;
  ]

let suite = suite @ baseline_extra

(* --- prefix tables (Welch & Ousterhout 1986) --- *)

let pt_binding port =
  Hrpc.Binding.make ~suite:Hrpc.Component.sunrpc_suite
    ~server:(Transport.Address.make 0x0A000050l port) ~prog:port ~vers:1

let prefix_longest_match () =
  let w = Helpers.make_world ~hosts:1 () in
  let pt = Baseline.Prefix_table.create w.stacks.(0) in
  Baseline.Prefix_table.mount pt ~prefix:"/a" (pt_binding 1);
  Baseline.Prefix_table.mount pt ~prefix:"/a/b" (pt_binding 2);
  (match Baseline.Prefix_table.lookup_local pt "/a/b/c.txt" with
  | Some ("/a/b", b) -> check_bool "longest wins" true (Hrpc.Binding.equal b (pt_binding 2))
  | _ -> Alcotest.fail "expected /a/b");
  (match Baseline.Prefix_table.lookup_local pt "/a/x" with
  | Some ("/a", _) -> ()
  | _ -> Alcotest.fail "expected /a");
  check_bool "no match" true (Baseline.Prefix_table.lookup_local pt "/z/q" = None);
  (* syntactic hazard: /ab is NOT under /a *)
  check_bool "component-wise, not string-wise" true
    (Baseline.Prefix_table.lookup_local pt "/ab" = None)

let prefix_broadcast_fallback () =
  let w = Helpers.make_world ~hosts:3 () in
  let learned, broadcasts =
    in_sim w (fun () ->
        let owner = Baseline.Broadcast_locate.start_interpreter w.stacks.(1)
            [ ("projects", pt_binding 7) ] in
        let bystander = Baseline.Broadcast_locate.start_interpreter w.stacks.(2) [] in
        let pt = Baseline.Prefix_table.create w.stacks.(0) in
        let first =
          match Baseline.Prefix_table.locate pt "/projects/hns/paper.tex" with
          | Ok (Some ("/projects", b)) -> Hrpc.Binding.equal b (pt_binding 7)
          | _ -> false
        in
        (* second locate is answered from the learned table: no new
           broadcast *)
        let second =
          match Baseline.Prefix_table.locate pt "/projects/other" with
          | Ok (Some ("/projects", _)) -> true
          | _ -> false
        in
        Baseline.Broadcast_locate.stop_interpreter owner;
        Baseline.Broadcast_locate.stop_interpreter bystander;
        ( first && second,
          Obs.Metrics.read (Baseline.Prefix_table.metrics pt) "baseline.prefix_table.broadcasts" ))
  in
  check_bool "learned via broadcast then cached" true learned;
  check_int "exactly one broadcast" 1 broadcasts

let prefix_nobody_claims () =
  let w = Helpers.make_world ~hosts:2 () in
  let r =
    in_sim w (fun () ->
        let empty = Baseline.Broadcast_locate.start_interpreter w.stacks.(1) [] in
        let pt = Baseline.Prefix_table.create w.stacks.(0) in
        let r = Baseline.Prefix_table.locate pt "/ghost/file" in
        Baseline.Broadcast_locate.stop_interpreter empty;
        r)
  in
  check_bool "unclaimed prefix" true (r = Ok None)

let prefix_cases =
  [
    Alcotest.test_case "prefix longest match" `Quick prefix_longest_match;
    Alcotest.test_case "prefix broadcast fallback" `Quick prefix_broadcast_fallback;
    Alcotest.test_case "prefix nobody claims" `Quick prefix_nobody_claims;
  ]

let suite = suite @ prefix_cases
