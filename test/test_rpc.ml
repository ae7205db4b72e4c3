(* Tests for the concrete RPC systems: wire formats, servers, clients,
   the portmapper, and the raw suite. *)

open Helpers

let echo_sign = Wire.Idl.signature ~arg:Wire.Idl.T_string ~res:Wire.Idl.T_string

(* --- control --- *)

let control_xids_unique () =
  let a = Rpc.Control.next_xid () and b = Rpc.Control.next_xid () in
  check_bool "distinct" true (a <> b)

(* --- Sun RPC wire --- *)

let sunrpc_wire_roundtrip () =
  let call =
    Rpc.Sunrpc_wire.Call { xid = 77l; prog = 100003l; vers = 2l; procnum = 4l; body = "args" }
  in
  (match Rpc.Sunrpc_wire.decode (Rpc.Sunrpc_wire.encode call) with
  | Rpc.Sunrpc_wire.Call c ->
      check_bool "call fields" true
        (c.xid = 77l && c.prog = 100003l && c.vers = 2l && c.procnum = 4l && c.body = "args")
  | _ -> Alcotest.fail "expected call");
  List.iter
    (fun rbody ->
      match
        Rpc.Sunrpc_wire.decode
          (Rpc.Sunrpc_wire.encode (Rpc.Sunrpc_wire.Reply { rxid = 9l; rbody }))
      with
      | Rpc.Sunrpc_wire.Reply r -> check_bool "reply roundtrip" true (r.rbody = rbody)
      | _ -> Alcotest.fail "expected reply")
    [ Rpc.Sunrpc_wire.Success "data"; Prog_unavail; Proc_unavail; Garbage_args ]

let sunrpc_wire_rejects_garbage () =
  match Rpc.Sunrpc_wire.decode "short" with
  | exception Rpc.Sunrpc_wire.Bad_message _ -> ()
  | _ -> Alcotest.fail "garbage should fail"

(* --- Sun RPC end to end --- *)

let with_sun_server w f =
  in_sim w (fun () ->
      let server = Rpc.Sunrpc.create w.stacks.(0) ~service_overhead_ms:5.0 () in
      Rpc.Sunrpc.register server ~prog:300 ~vers:1 ~procnum:1 ~sign:echo_sign (fun v -> v);
      Rpc.Sunrpc.start server;
      f server)

let sunrpc_echo () =
  let w = make_world () in
  let r =
    with_sun_server w (fun server ->
        Rpc.Sunrpc.call w.stacks.(1) ~dst:(Rpc.Sunrpc.addr server) ~prog:300 ~vers:1
          ~procnum:1 ~sign:echo_sign (Wire.Value.Str "hello"))
  in
  check_bool "echo" true (r = Ok (Wire.Value.Str "hello"))

let sunrpc_null_proc () =
  let w = make_world () in
  let r =
    with_sun_server w (fun server ->
        Rpc.Sunrpc.call w.stacks.(1) ~dst:(Rpc.Sunrpc.addr server) ~prog:300 ~vers:1
          ~procnum:0
          ~sign:(Wire.Idl.signature ~arg:Wire.Idl.T_void ~res:Wire.Idl.T_void)
          Wire.Value.Void)
  in
  check_bool "null proc answers" true (r = Ok Wire.Value.Void)

let sunrpc_prog_unavail () =
  let w = make_world () in
  let r =
    with_sun_server w (fun server ->
        Rpc.Sunrpc.call w.stacks.(1) ~dst:(Rpc.Sunrpc.addr server) ~prog:999 ~vers:1
          ~procnum:1 ~sign:echo_sign (Wire.Value.Str "x"))
  in
  check_bool "prog unavailable" true (r = Error Rpc.Control.Prog_unavailable)

let sunrpc_proc_unavail () =
  let w = make_world () in
  let r =
    with_sun_server w (fun server ->
        Rpc.Sunrpc.call w.stacks.(1) ~dst:(Rpc.Sunrpc.addr server) ~prog:300 ~vers:1
          ~procnum:42 ~sign:echo_sign (Wire.Value.Str "x"))
  in
  check_bool "proc unavailable" true (r = Error Rpc.Control.Proc_unavailable)

let sunrpc_timeout () =
  let w = make_world () in
  let r, elapsed =
    in_sim w (fun () ->
        let t0 = Sim.Engine.time () in
        let r =
          Rpc.Sunrpc.call w.stacks.(1)
            ~dst:(Transport.Address.make (Transport.Netstack.ip w.stacks.(0)) 1234)
            ~prog:1 ~vers:1 ~procnum:1 ~sign:echo_sign ~timeout:10.0 ~attempts:2
            (Wire.Value.Str "x")
        in
        (r, Sim.Engine.time () -. t0))
  in
  check_bool "times out" true
    (match r with Error (Rpc.Control.Timeout _) -> true | _ -> false);
  (* 10 + 20 (doubled) ms of waiting *)
  check_bool "waited both attempts" true (elapsed >= 30.0)

let sunrpc_retransmit_survives_loss () =
  let w = make_world ~drop_probability:0.4 () in
  let oks =
    with_sun_server w (fun server ->
        let ok = ref 0 in
        for _ = 1 to 20 do
          match
            Rpc.Sunrpc.call w.stacks.(1) ~dst:(Rpc.Sunrpc.addr server) ~prog:300
              ~vers:1 ~procnum:1 ~sign:echo_sign ~timeout:50.0 ~attempts:8
              (Wire.Value.Str "m")
          with
          | Ok _ -> incr ok
          | Error _ -> ()
        done;
        !ok)
  in
  check_bool "most calls survive 40% loss" true (oks >= 18)

(* --- portmapper --- *)

let portmap_set_getport () =
  let w = make_world () in
  let r =
    in_sim w (fun () ->
        let pm = Rpc.Portmap.start w.stacks.(0) in
        Rpc.Portmap.set pm ~prog:100003 ~vers:2 ~protocol:Rpc.Portmap.P_udp ~port:2049;
        let found =
          Rpc.Portmap.getport w.stacks.(1)
            ~portmapper:(Transport.Netstack.ip w.stacks.(0))
            ~prog:100003 ~vers:2 ()
        in
        let missing =
          Rpc.Portmap.getport w.stacks.(1)
            ~portmapper:(Transport.Netstack.ip w.stacks.(0))
            ~prog:555 ~vers:1 ()
        in
        Rpc.Portmap.unset pm ~prog:100003 ~vers:2 ~protocol:Rpc.Portmap.P_udp;
        let gone =
          Rpc.Portmap.getport w.stacks.(1)
            ~portmapper:(Transport.Netstack.ip w.stacks.(0))
            ~prog:100003 ~vers:2 ()
        in
        (found, missing, gone))
  in
  check_bool "found" true (r = (Ok (Some 2049), Ok None, Ok None))

let portmap_remote_set () =
  let w = make_world () in
  let r =
    in_sim w (fun () ->
        let pm = Rpc.Portmap.start w.stacks.(0) in
        ignore pm;
        (* remote SET via the Sun RPC procedure itself *)
        let mapping =
          Wire.Value.Struct
            [
              ("prog", Wire.Value.Uint 42l);
              ("vers", Wire.Value.Uint 1l);
              ("prot", Wire.Value.Uint 17l);
              ("port", Wire.Value.Uint 777l);
            ]
        in
        let sign =
          Wire.Idl.signature
            ~arg:
              (Wire.Idl.T_struct
                 [ ("prog", Wire.Idl.T_uint); ("vers", T_uint); ("prot", T_uint); ("port", T_uint) ])
            ~res:Wire.Idl.T_bool
        in
        let dst =
          Transport.Address.make
            (Transport.Netstack.ip w.stacks.(0))
            Transport.Address.Well_known.sunrpc_portmapper
        in
        let set1 =
          Rpc.Sunrpc.call w.stacks.(1) ~dst ~prog:Rpc.Portmap.program
            ~vers:Rpc.Portmap.version ~procnum:Rpc.Portmap.proc_set ~sign mapping
        in
        let set2 =
          Rpc.Sunrpc.call w.stacks.(1) ~dst ~prog:Rpc.Portmap.program
            ~vers:Rpc.Portmap.version ~procnum:Rpc.Portmap.proc_set ~sign mapping
        in
        let port =
          Rpc.Portmap.getport w.stacks.(1)
            ~portmapper:(Transport.Netstack.ip w.stacks.(0))
            ~prog:42 ~vers:1 ()
        in
        (set1, set2, port))
  in
  match r with
  | Ok (Wire.Value.Bool true), Ok (Wire.Value.Bool false), Ok (Some 777) -> ()
  | _ -> Alcotest.fail "remote SET semantics wrong"

(* --- Courier --- *)

let courier_wire_roundtrip () =
  List.iter
    (fun msg ->
      check_bool "roundtrip" true
        (Rpc.Courier_wire.decode (Rpc.Courier_wire.encode msg) = msg))
    [
      Rpc.Courier_wire.Call
        { transaction = 3; prog = 2l; vers = 3; procnum = 5; body = "b" };
      Rpc.Courier_wire.Return { transaction = 3; body = "r" };
      Rpc.Courier_wire.Abort { transaction = 3; error = 7; body = "" };
      Rpc.Courier_wire.Reject { transaction = 3; code = Rpc.Courier_wire.No_such_procedure };
    ]

let with_courier_server w f =
  in_sim w (fun () ->
      let server = Rpc.Courier_rpc.create w.stacks.(0) ~port:5 () in
      Rpc.Courier_rpc.register server ~prog:2 ~vers:3 ~procnum:1 ~sign:echo_sign
        (fun v -> v);
      Rpc.Courier_rpc.register server ~prog:2 ~vers:3 ~procnum:2 ~sign:echo_sign
        (fun _ -> failwith "deliberate");
      Rpc.Courier_rpc.start server;
      f server)

let courier_echo_session () =
  let w = make_world () in
  let r =
    with_courier_server w (fun server ->
        let session = Rpc.Courier_rpc.connect w.stacks.(1) (Rpc.Courier_rpc.addr server) in
        let a =
          Rpc.Courier_rpc.call session ~prog:2 ~vers:3 ~procnum:1 ~sign:echo_sign
            (Wire.Value.Str "one")
        in
        let b =
          Rpc.Courier_rpc.call session ~prog:2 ~vers:3 ~procnum:1 ~sign:echo_sign
            (Wire.Value.Str "two")
        in
        Rpc.Courier_rpc.close session;
        (a, b))
  in
  check_bool "both calls on one session" true
    (r = (Ok (Wire.Value.Str "one"), Ok (Wire.Value.Str "two")))

let courier_reject_codes () =
  let w = make_world () in
  let r =
    with_courier_server w (fun server ->
        let session = Rpc.Courier_rpc.connect w.stacks.(1) (Rpc.Courier_rpc.addr server) in
        let call ~prog ~vers ~procnum =
          Rpc.Courier_rpc.call session ~prog ~vers ~procnum ~sign:echo_sign
            (Wire.Value.Str "x")
        in
        let bad_prog = call ~prog:99 ~vers:3 ~procnum:1 in
        let bad_vers = call ~prog:2 ~vers:9 ~procnum:1 in
        let bad_proc = call ~prog:2 ~vers:3 ~procnum:9 in
        Rpc.Courier_rpc.close session;
        (bad_prog, bad_vers, bad_proc))
  in
  check_bool "reject mapping" true
    (r
    = ( Error Rpc.Control.Prog_unavailable,
        Error Rpc.Control.Prog_unavailable,
        Error Rpc.Control.Proc_unavailable ))

let courier_abort () =
  let w = make_world () in
  let r =
    with_courier_server w (fun server ->
        let session = Rpc.Courier_rpc.connect w.stacks.(1) (Rpc.Courier_rpc.addr server) in
        let r =
          Rpc.Courier_rpc.call session ~prog:2 ~vers:3 ~procnum:2 ~sign:echo_sign
            (Wire.Value.Str "x")
        in
        Rpc.Courier_rpc.close session;
        r)
  in
  check_bool "abort carries the message" true
    (r = Error (Rpc.Control.Protocol_error "remote abort: deliberate"))

(* --- raw --- *)

let rawrpc_native_payload () =
  let w = make_world () in
  let r =
    in_sim w (fun () ->
        let stop =
          Rpc.Rawrpc.serve_udp
            (Transport.Udp.bind w.stacks.(0) ~port:6000)
            ~name:"raw" ~service_overhead_ms:2.0 ~concurrent:false
            (fun ~src:_ payload -> Some (String.uppercase_ascii payload))
        in
        let reply =
          Rpc.Rawrpc.call w.stacks.(1)
            ~dst:(Transport.Address.make (Transport.Netstack.ip w.stacks.(0)) 6000)
            "native-format"
        in
        stop ();
        reply)
  in
  check_bool "no framing added" true (r = Ok "NATIVE-FORMAT")

let rawrpc_silent_server_times_out () =
  let w = make_world () in
  let r =
    in_sim w (fun () ->
        let stop =
          Rpc.Rawrpc.serve_udp
            (Transport.Udp.bind w.stacks.(0) ~port:6001)
            ~name:"raw" ~service_overhead_ms:0.0 ~concurrent:false
            (fun ~src:_ _ -> None)
        in
        let reply =
          Rpc.Rawrpc.call w.stacks.(1)
            ~dst:(Transport.Address.make (Transport.Netstack.ip w.stacks.(0)) 6001)
            ~timeout:20.0 ~attempts:2 "ignored"
        in
        stop ();
        reply)
  in
  check_bool "timeout" true
    (match r with Error (Rpc.Control.Timeout _) -> true | _ -> false)

(* Stopping a service while its handler is blocked drops the reply
   instead of sending it on the closed socket, which would abort the
   run: the run completes and the caller times out. *)
let rawrpc_stop_mid_request_drops_reply () =
  List.iter
    (fun concurrent ->
      let w = make_world () in
      let r =
        in_sim w (fun () ->
            let stop =
              Rpc.Rawrpc.serve_udp
                (Transport.Udp.bind w.stacks.(0) ~port:6002)
                ~name:"raw" ~service_overhead_ms:0.0 ~concurrent
                (fun ~src:_ payload ->
                  Sim.Engine.sleep 50.0;
                  Some payload)
            in
            Sim.Engine.spawn_child ~name:"stopper" (fun () ->
                Sim.Engine.sleep 10.0;
                stop ());
            Rpc.Rawrpc.call w.stacks.(1)
              ~dst:(Transport.Address.make (Transport.Netstack.ip w.stacks.(0)) 6002)
              ~timeout:200.0 ~attempts:1 "late")
      in
      check_bool "timeout" true
        (match r with Error (Rpc.Control.Timeout _) -> true | _ -> false))
    [ false; true ]

let suite =
  [
    Alcotest.test_case "xids unique" `Quick control_xids_unique;
    Alcotest.test_case "sunrpc wire roundtrip" `Quick sunrpc_wire_roundtrip;
    Alcotest.test_case "sunrpc wire garbage" `Quick sunrpc_wire_rejects_garbage;
    Alcotest.test_case "sunrpc echo" `Quick sunrpc_echo;
    Alcotest.test_case "sunrpc null proc" `Quick sunrpc_null_proc;
    Alcotest.test_case "sunrpc prog unavail" `Quick sunrpc_prog_unavail;
    Alcotest.test_case "sunrpc proc unavail" `Quick sunrpc_proc_unavail;
    Alcotest.test_case "sunrpc timeout" `Quick sunrpc_timeout;
    Alcotest.test_case "sunrpc retransmission" `Quick sunrpc_retransmit_survives_loss;
    Alcotest.test_case "portmap set/getport" `Quick portmap_set_getport;
    Alcotest.test_case "portmap remote set" `Quick portmap_remote_set;
    Alcotest.test_case "courier wire roundtrip" `Quick courier_wire_roundtrip;
    Alcotest.test_case "courier session" `Quick courier_echo_session;
    Alcotest.test_case "courier rejects" `Quick courier_reject_codes;
    Alcotest.test_case "courier abort" `Quick courier_abort;
    Alcotest.test_case "rawrpc native payload" `Quick rawrpc_native_payload;
    Alcotest.test_case "rawrpc timeout" `Quick rawrpc_silent_server_times_out;
    Alcotest.test_case "rawrpc stop drops the reply" `Quick
      rawrpc_stop_mid_request_drops_reply;
  ]
