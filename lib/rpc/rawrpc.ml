open Transport

type matcher = string -> (string, Control.error) result option

let exchange stack ~dst ~policy ~on_retry ~(accept : matcher) payload =
  Control.validate_policy policy;
  let t0 = Sim.Engine.time () in
  let sock = Udp.bind_any stack in
  let rec attempt i =
    if i > policy.Control.attempts then
      Error (Control.Timeout { elapsed_ms = Sim.Engine.time () -. t0 })
    else begin
      if i > 1 then begin
        (* The schedule is a function of the policy and the seed, so a
           retry, which most calls never make, can rebuild it. *)
        let seed = Int64.logxor (Int64.of_int32 (Netstack.ip stack)) (Int64.bits_of_float t0) in
        let pause = (Control.backoff_schedule policy ~seed).(i - 2) in
        on_retry pause;
        if pause > 0.0 then Sim.Engine.sleep pause
      end;
      Udp.sendto sock ~dst payload;
      (* Drain until our reply answers or the window closes; stale
         replies from earlier retransmissions are skipped. *)
      let deadline = Sim.Engine.time () +. Control.attempt_timeout policy i in
      let rec wait () =
        let remaining = deadline -. Sim.Engine.time () in
        if remaining <= 0.0 then attempt (i + 1)
        else
          match Udp.recv_timeout sock remaining with
          | None -> attempt (i + 1)
          | Some (_, resp) -> ( match accept resp with Some r -> r | None -> wait ())
      in
      wait ()
    end
  in
  let result = attempt 1 in
  Udp.close sock;
  result

let call stack ~dst ?(timeout = 1000.0) ?(attempts = 3) payload =
  exchange stack ~dst
    ~policy:(Control.native_policy ~attempts ~timeout)
    ~on_retry:ignore
    ~accept:(fun resp -> Some (Ok resp))
    payload

let await conn ~t0 ~timeout ~(accept : matcher) =
  let timed_out () = Error (Control.Timeout { elapsed_ms = Sim.Engine.time () -. t0 }) in
  let deadline = Sim.Engine.time () +. timeout in
  let rec wait () =
    let remaining = deadline -. Sim.Engine.time () in
    if remaining <= 0.0 then timed_out ()
    else
      match Tcp.recv_timeout conn remaining with
      | exception Tcp.Connection_closed -> Error Control.Refused
      | None -> timed_out ()
      | Some resp -> ( match accept resp with Some r -> r | None -> wait ())
  in
  wait ()

let call_tcp stack ~dst ~connect_timeout_ms ~timeout ~accept payload =
  let t0 = Sim.Engine.time () in
  match Tcp.connect ~timeout_ms:connect_timeout_ms stack dst with
  | exception Tcp.Connection_refused _ -> Error Control.Refused
  | conn ->
      Tcp.send conn payload;
      let result = await conn ~t0 ~timeout ~accept in
      Tcp.close conn;
      result

let serve_udp sock ~name ~service_overhead_ms ~concurrent handler =
  let running = ref true in
  Sim.Engine.spawn_child ~name (fun () ->
      let serve src payload =
        if service_overhead_ms > 0.0 then Sim.Engine.sleep service_overhead_ms;
        match handler ~src payload with
        | Some response ->
            (* A service stopped while the handler ran has closed its
               socket: the reply is dropped and the client times out. *)
            if !running then Udp.sendto sock ~dst:src response
        | None -> ()
        | exception (Failure _ | Invalid_argument _) ->
            () (* a crashed handler stays silent; the client times out *)
      in
      while !running do
        let src, payload = Udp.recv sock in
        (* A concurrent server hands each datagram to its own fiber so
           slow procedures (e.g. an agent's upstream FindNSM) never
           serialize unrelated requests — and so duplicate in-flight
           requests can actually meet in the procedure's coalescing
           table. *)
        if concurrent then
          Sim.Engine.spawn_child ~name:(name ^ ":req") (fun () -> serve src payload)
        else serve src payload
      done);
  fun () ->
    running := false;
    Udp.close sock

let serve_tcp listener ~name ~service_overhead_ms handler =
  let running = ref true in
  Sim.Engine.spawn_child ~name (fun () ->
      while !running do
        let conn = Tcp.accept listener in
        Sim.Engine.spawn_child ~name:(name ^ ":conn") (fun () ->
            let rec loop () =
              match Tcp.recv conn with
              | exception Tcp.Connection_closed -> ()
              | payload ->
                  if service_overhead_ms > 0.0 then Sim.Engine.sleep service_overhead_ms;
                  (match handler payload with Some reply -> Tcp.send conn reply | None -> ());
                  loop ()
            in
            loop ();
            Tcp.close conn)
      done);
  fun () ->
    running := false;
    Tcp.close_listener listener

