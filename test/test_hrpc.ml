(* Tests for HRPC: the five-component model, bindings, emulation of
   native peers, mix-and-match suites, and binding protocols. *)

open Helpers

let echo_sign = Wire.Idl.signature ~arg:Wire.Idl.T_string ~res:Wire.Idl.T_string

(* --- component naming --- *)

let suite_names () =
  check_string "sun suite" "xdr/udp/sunrpc" (Hrpc.Component.suite_name Hrpc.Component.sunrpc_suite);
  check_string "courier suite" "courier/tcp/courier"
    (Hrpc.Component.suite_name Hrpc.Component.courier_suite);
  check_bool "parse transport" true (Hrpc.Component.transport_of_name "tcp" = Some Hrpc.Component.T_tcp);
  check_bool "parse control" true (Hrpc.Component.control_of_name "raw" = Some Hrpc.Component.C_raw);
  check_bool "unknown" true (Hrpc.Component.control_of_name "xns" = None)

(* --- binding serialization --- *)

let all_suites =
  [
    Hrpc.Component.sunrpc_suite;
    Hrpc.Component.courier_suite;
    Hrpc.Component.raw_udp_suite;
    { Hrpc.Component.data_rep = Wire.Data_rep.Courier; transport = T_udp; control = C_sunrpc };
    { Hrpc.Component.data_rep = Wire.Data_rep.Xdr; transport = T_tcp; control = C_courier };
  ]

let arb_binding =
  let gen =
    QCheck.Gen.(
      oneofl all_suites >>= fun suite ->
      map2
        (fun ip port ->
          Hrpc.Binding.make ~suite
            ~server:(Transport.Address.make (Int32.of_int ip) (port land 0xFFFF))
            ~prog:(port * 3) ~vers:(1 + (port mod 5)))
        int (int_range 1 60000))
  in
  QCheck.make gen ~print:(Format.asprintf "%a" Hrpc.Binding.pp)

let binding_bytes_roundtrip =
  QCheck.Test.make ~name:"binding bytes roundtrip" ~count:200 arb_binding (fun b ->
      Hrpc.Binding.equal b (Hrpc.Binding.of_bytes (Hrpc.Binding.to_bytes b)))

let binding_value_roundtrip =
  QCheck.Test.make ~name:"binding value roundtrip" ~count:200 arb_binding (fun b ->
      Hrpc.Binding.equal b (Hrpc.Binding.of_value (Hrpc.Binding.to_value b)))

let binding_rejects_garbage () =
  match Hrpc.Binding.of_bytes "nonsense" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "garbage should fail"

(* --- hrpc server/client across suites --- *)

let exportable_suites =
  List.filter (fun s -> s.Hrpc.Component.control <> Hrpc.Component.C_raw) all_suites

let hrpc_echo_all_suites () =
  List.iter
    (fun suite ->
      let w = make_world () in
      let r =
        in_sim w (fun () ->
            let server =
              Hrpc.Server.create w.stacks.(0) ~suite ~prog:700 ~vers:2 ()
            in
            Hrpc.Server.register server ~procnum:1 ~sign:echo_sign (fun v -> v);
            Hrpc.Server.start server;
            Hrpc.Client.call w.stacks.(1) (Hrpc.Server.binding server) ~procnum:1
              ~sign:echo_sign (Wire.Value.Str "mix"))
      in
      if r <> Ok (Wire.Value.Str "mix") then
        Alcotest.failf "suite %s failed" (Hrpc.Component.suite_name suite))
    exportable_suites

let hrpc_raw_export_rejected () =
  let w = make_world () in
  match
    Hrpc.Server.create w.stacks.(0) ~suite:Hrpc.Component.raw_udp_suite ~prog:1 ~vers:1 ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "raw suite export should be rejected"

(* Emulation: an HRPC client calls a NATIVE Sun RPC server; an HRPC
   server is called by a NATIVE Sun RPC client. Same for Courier.
   This is the paper's core claim about HRPC: "looks to each existing
   RPC mechanism exactly the same as a homogeneous peer". *)

let hrpc_emulates_sun_client () =
  let w = make_world () in
  let r =
    in_sim w (fun () ->
        let native = Rpc.Sunrpc.create w.stacks.(0) () in
        Rpc.Sunrpc.register native ~prog:301 ~vers:1 ~procnum:1 ~sign:echo_sign (fun v -> v);
        Rpc.Sunrpc.start native;
        let binding =
          Hrpc.Binding.make ~suite:Hrpc.Component.sunrpc_suite
            ~server:(Rpc.Sunrpc.addr native) ~prog:301 ~vers:1
        in
        Hrpc.Client.call w.stacks.(1) binding ~procnum:1 ~sign:echo_sign
          (Wire.Value.Str "native server"))
  in
  check_bool "hrpc -> native sun" true (r = Ok (Wire.Value.Str "native server"))

let hrpc_emulates_sun_server () =
  let w = make_world () in
  let r =
    in_sim w (fun () ->
        let server =
          Hrpc.Server.create w.stacks.(0) ~suite:Hrpc.Component.sunrpc_suite ~prog:302
            ~vers:1 ()
        in
        Hrpc.Server.register server ~procnum:1 ~sign:echo_sign (fun v -> v);
        Hrpc.Server.start server;
        (* Call it with the NATIVE Sun RPC client. *)
        Rpc.Sunrpc.call w.stacks.(1)
          ~dst:(Hrpc.Server.binding server).Hrpc.Binding.server ~prog:302 ~vers:1
          ~procnum:1 ~sign:echo_sign (Wire.Value.Str "native client"))
  in
  check_bool "native sun -> hrpc" true (r = Ok (Wire.Value.Str "native client"))

let hrpc_emulates_courier_client () =
  let w = make_world () in
  let r =
    in_sim w (fun () ->
        let native = Rpc.Courier_rpc.create w.stacks.(0) () in
        Rpc.Courier_rpc.register native ~prog:2 ~vers:3 ~procnum:4 ~sign:echo_sign
          (fun v -> v);
        Rpc.Courier_rpc.start native;
        let binding =
          Hrpc.Binding.make ~suite:Hrpc.Component.courier_suite
            ~server:(Rpc.Courier_rpc.addr native) ~prog:2 ~vers:3
        in
        Hrpc.Client.call w.stacks.(1) binding ~procnum:4 ~sign:echo_sign
          (Wire.Value.Str "xerox"))
  in
  check_bool "hrpc -> native courier" true (r = Ok (Wire.Value.Str "xerox"))

let hrpc_emulates_courier_server () =
  let w = make_world () in
  let r =
    in_sim w (fun () ->
        let server =
          Hrpc.Server.create w.stacks.(0) ~suite:Hrpc.Component.courier_suite ~prog:2
            ~vers:3 ()
        in
        Hrpc.Server.register server ~procnum:1 ~sign:echo_sign (fun v -> v);
        Hrpc.Server.start server;
        let session =
          Rpc.Courier_rpc.connect w.stacks.(1)
            (Hrpc.Server.binding server).Hrpc.Binding.server
        in
        let r =
          Rpc.Courier_rpc.call session ~prog:2 ~vers:3 ~procnum:1 ~sign:echo_sign
            (Wire.Value.Str "native courier client")
        in
        Rpc.Courier_rpc.close session;
        r)
  in
  check_bool "native courier -> hrpc" true (r = Ok (Wire.Value.Str "native courier client"))

(* Native and HRPC Courier servers run one dispatcher, and every
   client one reply matcher: the same call gets the same answer from
   either server. A version the program is not exported at is
   No_such_version, and an abort reads "remote abort: <message>". *)
let courier_native_and_hrpc_agree () =
  let w = make_world () in
  in_sim w (fun () ->
      let crash _ = failwith "deliberate" in
      let native = Rpc.Courier_rpc.create w.stacks.(0) () in
      Rpc.Courier_rpc.register native ~prog:2 ~vers:3 ~procnum:1 ~sign:echo_sign crash;
      Rpc.Courier_rpc.start native;
      let hrpc =
        Hrpc.Server.create w.stacks.(0) ~suite:Hrpc.Component.courier_suite ~prog:2
          ~vers:3 ()
      in
      Hrpc.Server.register hrpc ~procnum:1 ~sign:echo_sign crash;
      Hrpc.Server.start hrpc;
      List.iter
        (fun (what, dst) ->
          let conn = Transport.Tcp.connect w.stacks.(1) dst in
          Transport.Tcp.send conn
            (Rpc.Courier_wire.encode
               (Rpc.Courier_wire.Call
                  { transaction = 9; prog = 2l; vers = 4; procnum = 1; body = "" }));
          (match Rpc.Courier_wire.decode (Transport.Tcp.recv conn) with
          | Rpc.Courier_wire.Reject { transaction = 9; code = Rpc.Courier_wire.No_such_version }
            ->
              ()
          | _ -> Alcotest.failf "%s server: expected No_such_version" what);
          Transport.Tcp.close conn;
          let b =
            Hrpc.Binding.make ~suite:Hrpc.Component.courier_suite ~server:dst ~prog:2
              ~vers:3
          in
          check_bool (what ^ " server: the abort carries its message") true
            (Hrpc.Client.call w.stacks.(1) b ~procnum:1 ~sign:echo_sign
               (Wire.Value.Str "x")
            = Error (Rpc.Control.Protocol_error "remote abort: deliberate")))
        [
          ("native", Rpc.Courier_rpc.addr native);
          ("hrpc", (Hrpc.Server.binding hrpc).Hrpc.Binding.server);
        ])

let hrpc_call_raw_to_bind () =
  (* call_raw speaks a server's native format: a DNS query here. *)
  let w = make_world () in
  let answers =
    in_sim w (fun () ->
        let zone =
          Dns.Zone.simple ~origin:(Dns.Name.of_string "z")
            [ Dns.Rr.make (Dns.Name.of_string "h.z") (Dns.Rr.A 9l) ]
        in
        let server = Dns.Server.create w.stacks.(0) () in
        Dns.Server.add_zone server zone;
        Dns.Server.start server;
        let binding =
          Hrpc.Binding.make ~suite:Hrpc.Component.raw_udp_suite
            ~server:(Dns.Server.addr server) ~prog:0 ~vers:0
        in
        let request = Dns.Msg.encode (Dns.Msg.query ~id:5 (Dns.Name.of_string "h.z") Dns.Rr.T_a) in
        match Hrpc.Client.call_raw w.stacks.(1) binding request with
        | Ok payload -> (Dns.Msg.decode payload).Dns.Msg.answers
        | Error e -> Alcotest.failf "raw call failed: %a" Rpc.Control.pp_error e)
  in
  check_int "one answer" 1 (List.length answers)

let hrpc_wrong_prog () =
  let w = make_world () in
  let r =
    in_sim w (fun () ->
        let server =
          Hrpc.Server.create w.stacks.(0) ~suite:Hrpc.Component.sunrpc_suite ~prog:10
            ~vers:1 ()
        in
        Hrpc.Server.register server ~procnum:1 ~sign:echo_sign (fun v -> v);
        Hrpc.Server.start server;
        let b = Hrpc.Server.binding server in
        Hrpc.Client.call w.stacks.(1) { b with Hrpc.Binding.prog = 11 } ~procnum:1
          ~sign:echo_sign (Wire.Value.Str "x"))
  in
  check_bool "prog unavailable" true (r = Error Rpc.Control.Prog_unavailable)

(* Regression: a call that exhausts every attempt must surface
   [Timeout] carrying the *cumulative* elapsed time across all
   attempts and pauses — not the last attempt's deadline. *)
let hrpc_timeout_cumulative_elapsed () =
  let w = make_world () in
  let policy =
    {
      Rpc.Control.default_policy with
      Rpc.Control.attempts = 3;
      attempt_timeout_ms = 100.0;
      timeout_multiplier = 2.0;
      backoff_base_ms = 50.0;
      backoff_multiplier = 1.0;
      backoff_cap_ms = 50.0;
      jitter_ratio = 0.0;
    }
  in
  (* Nobody listens on the target port: every attempt must run its
     full deadline. Expected elapsed: 100 + 50 + 200 + 50 + 400. *)
  let dead =
    Hrpc.Binding.make ~suite:Hrpc.Component.sunrpc_suite
      ~server:(Transport.Address.make (Transport.Netstack.ip w.stacks.(0)) 19999)
      ~prog:1 ~vers:1
  in
  let r, virtual_elapsed =
    in_sim w (fun () ->
        let t0 = Sim.Engine.time () in
        let r =
          Hrpc.Client.call w.stacks.(1) dead ~procnum:1 ~sign:echo_sign ~policy
            (Wire.Value.Str "void")
        in
        (r, Sim.Engine.time () -. t0))
  in
  match r with
  | Error (Rpc.Control.Timeout { elapsed_ms }) ->
      check_float_near "elapsed is the whole call, not one deadline" 800.0
        elapsed_ms;
      check_float_near "elapsed matches the virtual clock" virtual_elapsed
        elapsed_ms
  | Error e -> Alcotest.failf "expected Timeout, got %a" Rpc.Control.pp_error e
  | Ok _ -> Alcotest.fail "call to a dead port cannot succeed"

(* The retry pauses are the backoff schedule seeded from the caller's
   address and the call's start time, even though the schedule is built
   only when the call first retries. *)
let hrpc_backoff_seeded_at_call_start () =
  let w = make_world () in
  let policy =
    {
      Rpc.Control.default_policy with
      Rpc.Control.attempts = 3;
      attempt_timeout_ms = 100.0;
      timeout_multiplier = 2.0;
      backoff_base_ms = 50.0;
      backoff_multiplier = 2.0;
      backoff_cap_ms = 1000.0;
      jitter_ratio = 0.1;
    }
  in
  let dead =
    Hrpc.Binding.make ~suite:Hrpc.Component.sunrpc_suite
      ~server:(Transport.Address.make (Transport.Netstack.ip w.stacks.(0)) 19999)
      ~prog:1 ~vers:1
  in
  let r, t0 =
    in_sim w (fun () ->
        Sim.Engine.sleep 7.0;
        let t0 = Sim.Engine.time () in
        let r =
          Hrpc.Client.call w.stacks.(1) dead ~procnum:1 ~sign:echo_sign ~policy
            (Wire.Value.Str "void")
        in
        (r, t0))
  in
  let seed =
    Int64.logxor (Int64.of_int32 (Transport.Netstack.ip w.stacks.(1))) (Int64.bits_of_float t0)
  in
  let pauses = Rpc.Control.backoff_schedule policy ~seed in
  match r with
  | Error (Rpc.Control.Timeout { elapsed_ms }) ->
      check_float_near "attempt timeouts plus the start-seeded pauses"
        (100.0 +. 200.0 +. 400.0 +. pauses.(0) +. pauses.(1))
        elapsed_ms
  | Error e -> Alcotest.failf "expected Timeout, got %a" Rpc.Control.pp_error e
  | Ok _ -> Alcotest.fail "call to a dead port cannot succeed"

(* The native clients retransmit with no pause between attempts: to a
   port nobody serves, the 1000, 2000 and 4000 ms deadlines add up to
   exactly 7000 ms. *)
let native_timeout_has_no_pauses () =
  let w = make_world () in
  let dead = Transport.Address.make (Transport.Netstack.ip w.stacks.(0)) 19999 in
  let sun, raw =
    in_sim w (fun () ->
        let sun =
          Rpc.Sunrpc.call w.stacks.(1) ~dst:dead ~prog:1 ~vers:1 ~procnum:1
            ~sign:echo_sign (Wire.Value.Str "void")
        in
        (sun, Rpc.Rawrpc.call w.stacks.(1) ~dst:dead "void"))
  in
  let timeout = Error (Rpc.Control.Timeout { elapsed_ms = 7000. }) in
  check_bool "sunrpc: 1000 + 2000 + 4000 ms" true (sun = timeout);
  check_bool "rawrpc: 1000 + 2000 + 4000 ms" true (raw = timeout)

(* --- binding protocols --- *)

let bind_protocol_static () =
  let w = make_world () in
  let b =
    Hrpc.Binding.make ~suite:Hrpc.Component.sunrpc_suite
      ~server:(Transport.Address.make 1l 2) ~prog:3 ~vers:4
  in
  let r = in_sim w (fun () -> Hrpc.Bind_protocol.resolve w.stacks.(0) (Hrpc.Bind_protocol.Static b)) in
  check_bool "static" true (r = Ok b)

let bind_protocol_portmapper () =
  let w = make_world () in
  let r =
    in_sim w (fun () ->
        let pm = Rpc.Portmap.start w.stacks.(0) in
        Rpc.Portmap.set pm ~prog:100005 ~vers:1 ~protocol:Rpc.Portmap.P_udp ~port:888;
        Hrpc.Bind_protocol.resolve w.stacks.(1)
          (Hrpc.Bind_protocol.Sun_portmapper
             {
               host = Transport.Netstack.ip w.stacks.(0);
               prog = 100005;
               vers = 1;
               suite = Hrpc.Component.sunrpc_suite;
             }))
  in
  match r with
  | Ok b ->
      check_int "resolved port" 888 b.Hrpc.Binding.server.Transport.Address.port;
      check_int "prog carried" 100005 b.Hrpc.Binding.prog
  | Error e -> Alcotest.failf "portmapper binding failed: %a" Rpc.Control.pp_error e

let bind_protocol_clearinghouse () =
  let w = make_world () in
  let cred =
    { Clearinghouse.Ch_proto.user = Clearinghouse.Ch_name.of_string "hcs:parc:xerox";
      password = "" }
  in
  let expected =
    Hrpc.Binding.make ~suite:Hrpc.Component.courier_suite
      ~server:(Transport.Address.make 7l 9) ~prog:5 ~vers:6
  in
  let r =
    in_sim w (fun () ->
        let ch = Clearinghouse.Ch_server.create w.stacks.(0) () in
        Clearinghouse.Ch_db.store (Clearinghouse.Ch_server.db ch)
          (Clearinghouse.Ch_name.of_string "printsrv:parc:xerox")
          (Clearinghouse.Property.item Clearinghouse.Property.Id.service_binding
             (Hrpc.Binding.to_bytes expected));
        Clearinghouse.Ch_server.start ch;
        Hrpc.Bind_protocol.resolve w.stacks.(1)
          (Hrpc.Bind_protocol.Clearinghouse_binding
             {
               ch = Clearinghouse.Ch_server.addr ch;
               service = Clearinghouse.Ch_name.of_string "printsrv:parc:xerox";
               credentials = cred;
             }))
  in
  check_bool "clearinghouse binding" true (r = Ok expected)

(* --- typed stubs --- *)

let stub_typed_call () =
  let w = make_world () in
  let double =
    Hrpc.Stub.proc ~procnum:1
      ~sign:(Wire.Idl.signature ~arg:Wire.Idl.T_int ~res:Wire.Idl.T_int)
      ~encode_arg:(fun i -> Wire.Value.int i)
      ~decode_res:Wire.Value.get_int
  in
  let r =
    in_sim w (fun () ->
        let server =
          Hrpc.Server.create w.stacks.(0) ~suite:Hrpc.Component.sunrpc_suite ~prog:11
            ~vers:1 ()
        in
        Hrpc.Server.register server ~procnum:1
          ~sign:(Wire.Idl.signature ~arg:Wire.Idl.T_int ~res:Wire.Idl.T_int)
          (fun v -> Wire.Value.int (2 * Wire.Value.get_int v));
        Hrpc.Server.start server;
        Hrpc.Stub.call w.stacks.(1) (Hrpc.Server.binding server) double 21)
  in
  check_bool "typed result" true (r = Ok 42)

let suite =
  [
    Alcotest.test_case "suite names" `Quick suite_names;
    qtest binding_bytes_roundtrip;
    qtest binding_value_roundtrip;
    Alcotest.test_case "binding garbage" `Quick binding_rejects_garbage;
    Alcotest.test_case "echo across suites" `Quick hrpc_echo_all_suites;
    Alcotest.test_case "raw export rejected" `Quick hrpc_raw_export_rejected;
    Alcotest.test_case "emulate sun (client)" `Quick hrpc_emulates_sun_client;
    Alcotest.test_case "emulate sun (server)" `Quick hrpc_emulates_sun_server;
    Alcotest.test_case "emulate courier (client)" `Quick hrpc_emulates_courier_client;
    Alcotest.test_case "emulate courier (server)" `Quick hrpc_emulates_courier_server;
    Alcotest.test_case "courier: native and hrpc servers agree" `Quick
      courier_native_and_hrpc_agree;
    Alcotest.test_case "raw call to BIND" `Quick hrpc_call_raw_to_bind;
    Alcotest.test_case "wrong prog" `Quick hrpc_wrong_prog;
    Alcotest.test_case "timeout carries cumulative elapsed" `Quick
      hrpc_timeout_cumulative_elapsed;
    Alcotest.test_case "backoff seeded at call start" `Quick
      hrpc_backoff_seeded_at_call_start;
    Alcotest.test_case "native timeout has no pauses" `Quick native_timeout_has_no_pauses;
    Alcotest.test_case "static binding" `Quick bind_protocol_static;
    Alcotest.test_case "portmapper binding" `Quick bind_protocol_portmapper;
    Alcotest.test_case "clearinghouse binding" `Quick bind_protocol_clearinghouse;
    Alcotest.test_case "typed stub" `Quick stub_typed_call;
  ]
