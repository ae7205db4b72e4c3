(* Tests for addresses, UDP, and TCP over the simulated network. *)

open Helpers

let address_basics () =
  let a = Transport.Address.make 0x0A000001l 53 in
  check_string "dotted quad" "10.0.0.1:53" (Transport.Address.to_string a);
  check_bool "equal" true (Transport.Address.equal a (Transport.Address.make 0x0A000001l 53));
  check_bool "port differs" false
    (Transport.Address.equal a (Transport.Address.make 0x0A000001l 54));
  check_int "compare" 0 (Transport.Address.compare a a)

let udp_delivery () =
  let w = make_world ~hosts:2 () in
  let got =
    in_sim w (fun () ->
        let server = Transport.Udp.bind w.stacks.(0) ~port:9000 in
        let client = Transport.Udp.bind_any w.stacks.(1) in
        Sim.Engine.spawn_child (fun () ->
            let src, payload = Transport.Udp.recv server in
            Transport.Udp.sendto server ~dst:src ("re:" ^ payload));
        Transport.Udp.sendto client ~dst:(Transport.Udp.local_addr server) "ping";
        let _, reply = Transport.Udp.recv client in
        reply)
  in
  check_string "echo" "re:ping" got

let udp_delivery_takes_time () =
  let w = make_world ~hosts:2 () in
  let elapsed =
    in_sim w (fun () ->
        let server = Transport.Udp.bind w.stacks.(0) ~port:9001 in
        let client = Transport.Udp.bind_any w.stacks.(1) in
        let t0 = Sim.Engine.time () in
        Transport.Udp.sendto client ~dst:(Transport.Udp.local_addr server) "x";
        ignore (Transport.Udp.recv server);
        Sim.Engine.time () -. t0)
  in
  check_bool "positive transit time" true (elapsed > 0.0)

let udp_unbound_port_drops () =
  let w = make_world ~hosts:2 () in
  let got =
    in_sim w (fun () ->
        let client = Transport.Udp.bind_any w.stacks.(1) in
        Transport.Udp.sendto client
          ~dst:(Transport.Address.make (Transport.Netstack.ip w.stacks.(0)) 12345)
          "void";
        Transport.Udp.recv_timeout client 50.0)
  in
  check_bool "no reply" true (got = None)

let udp_port_conflict () =
  let w = make_world ~hosts:1 () in
  let _a = Transport.Udp.bind w.stacks.(0) ~port:7 in
  (match Transport.Udp.bind w.stacks.(0) ~port:7 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "double bind should raise");
  Transport.Udp.close _a;
  (* closing releases the port *)
  let b = Transport.Udp.bind w.stacks.(0) ~port:7 in
  Transport.Udp.close b

let udp_loss () =
  let w = make_world ~hosts:2 ~drop_probability:0.5 () in
  let received =
    in_sim w (fun () ->
        let server = Transport.Udp.bind w.stacks.(0) ~port:9002 in
        let client = Transport.Udp.bind_any w.stacks.(1) in
        for _ = 1 to 100 do
          Transport.Udp.sendto client ~dst:(Transport.Udp.local_addr server) "m"
        done;
        Sim.Engine.sleep 100.0;
        Transport.Udp.pending server)
  in
  check_bool "some datagrams lost" true (received < 100);
  check_bool "some datagrams survived" true (received > 0);
  check_bool "drop counter matches" true
    (net_count w.net "transport.netstack.packets_dropped" = 100 - received)

let tcp_connect_and_exchange () =
  let w = make_world ~hosts:2 () in
  let got =
    in_sim w (fun () ->
        let listener = Transport.Tcp.listen w.stacks.(0) ~port:5000 in
        Sim.Engine.spawn_child (fun () ->
            let conn = Transport.Tcp.accept listener in
            let m1 = Transport.Tcp.recv conn in
            let m2 = Transport.Tcp.recv conn in
            Transport.Tcp.send conn (m1 ^ "+" ^ m2);
            Transport.Tcp.close conn);
        let conn =
          Transport.Tcp.connect w.stacks.(1) (Transport.Tcp.listener_addr listener)
        in
        Transport.Tcp.send conn "a";
        Transport.Tcp.send conn "b";
        let reply = Transport.Tcp.recv conn in
        Transport.Tcp.close conn;
        reply)
  in
  check_string "exchange" "a+b" got

let tcp_ordering_large_then_small () =
  (* A large message must not be overtaken by a later small one. *)
  let w = make_world ~hosts:2 () in
  let got =
    in_sim w (fun () ->
        let listener = Transport.Tcp.listen w.stacks.(0) ~port:5001 in
        Sim.Engine.spawn_child (fun () ->
            let conn = Transport.Tcp.accept listener in
            Transport.Tcp.send conn (String.make 100_000 'L');
            Transport.Tcp.send conn "S";
            Transport.Tcp.close conn);
        let conn =
          Transport.Tcp.connect w.stacks.(1) (Transport.Tcp.listener_addr listener)
        in
        let first = Transport.Tcp.recv conn in
        let second = Transport.Tcp.recv conn in
        Transport.Tcp.close conn;
        (String.length first, second))
  in
  check_bool "large first" true (got = (100_000, "S"))

let tcp_refused () =
  let w = make_world ~hosts:2 () in
  in_sim w (fun () ->
      match
        Transport.Tcp.connect w.stacks.(1)
          (Transport.Address.make (Transport.Netstack.ip w.stacks.(0)) 4444)
      with
      | exception Transport.Tcp.Connection_refused _ -> ()
      | _ -> Alcotest.fail "connect to closed port should be refused")

let tcp_close_propagates () =
  let w = make_world ~hosts:2 () in
  in_sim w (fun () ->
      let listener = Transport.Tcp.listen w.stacks.(0) ~port:5002 in
      Sim.Engine.spawn_child (fun () ->
          let conn = Transport.Tcp.accept listener in
          Transport.Tcp.close conn);
      let conn =
        Transport.Tcp.connect w.stacks.(1) (Transport.Tcp.listener_addr listener)
      in
      match Transport.Tcp.recv conn with
      | exception Transport.Tcp.Connection_closed -> ()
      | _ -> Alcotest.fail "recv after peer close should raise")

let tcp_handshake_costs_rtt () =
  let w = make_world ~hosts:2 () in
  let elapsed =
    in_sim w (fun () ->
        let listener = Transport.Tcp.listen w.stacks.(0) ~port:5003 in
        Sim.Engine.spawn_child (fun () -> ignore (Transport.Tcp.accept listener));
        let t0 = Sim.Engine.time () in
        let conn =
          Transport.Tcp.connect w.stacks.(1) (Transport.Tcp.listener_addr listener)
        in
        Transport.Tcp.close conn;
        Sim.Engine.time () -. t0)
  in
  (* default topology: 0.5 ms per hop, handshake is two hops *)
  check_bool "about one RTT" true (elapsed >= 1.0 && elapsed < 2.0)

let netstack_counters () =
  let w = make_world ~hosts:2 () in
  let before = net_count w.net "transport.netstack.packets_sent" in
  in_sim w (fun () ->
      let server = Transport.Udp.bind w.stacks.(0) ~port:9100 in
      let client = Transport.Udp.bind_any w.stacks.(1) in
      Transport.Udp.sendto client ~dst:(Transport.Udp.local_addr server) "abc";
      ignore (Transport.Udp.recv server));
  check_int "one packet" 1 (net_count w.net "transport.netstack.packets_sent" - before);
  check_bool "bytes counted" true (net_count w.net "transport.netstack.bytes_sent" >= 3)

let netstack_delivery_crosscheck () =
  (* At quiescence every sent packet was either delivered or dropped:
     packets_sent = packets_received + packets_dropped. *)
  let w = make_world ~hosts:2 ~drop_probability:0.3 () in
  in_sim w (fun () ->
      let server = Transport.Udp.bind w.stacks.(0) ~port:9101 in
      let client = Transport.Udp.bind_any w.stacks.(1) in
      for _ = 1 to 200 do
        Transport.Udp.sendto client ~dst:(Transport.Udp.local_addr server) "m"
      done;
      Sim.Engine.sleep 100.0);
  let sent = net_count w.net "transport.netstack.packets_sent" in
  let received = net_count w.net "transport.netstack.packets_received" in
  let dropped = net_count w.net "transport.netstack.packets_dropped" in
  check_int "all packets sent" 200 sent;
  check_bool "some dropped" true (dropped > 0);
  check_bool "some delivered" true (received > 0);
  check_int "sent = received + dropped" sent (received + dropped)

let suite =
  [
    Alcotest.test_case "address basics" `Quick address_basics;
    Alcotest.test_case "udp delivery" `Quick udp_delivery;
    Alcotest.test_case "udp transit time" `Quick udp_delivery_takes_time;
    Alcotest.test_case "udp unbound drops" `Quick udp_unbound_port_drops;
    Alcotest.test_case "udp port conflict" `Quick udp_port_conflict;
    Alcotest.test_case "udp loss model" `Quick udp_loss;
    Alcotest.test_case "tcp exchange" `Quick tcp_connect_and_exchange;
    Alcotest.test_case "tcp ordering" `Quick tcp_ordering_large_then_small;
    Alcotest.test_case "tcp refused" `Quick tcp_refused;
    Alcotest.test_case "tcp close propagates" `Quick tcp_close_propagates;
    Alcotest.test_case "tcp handshake RTT" `Quick tcp_handshake_costs_rtt;
    Alcotest.test_case "netstack counters" `Quick netstack_counters;
    Alcotest.test_case "netstack delivery cross-check" `Quick
      netstack_delivery_crosscheck;
  ]
