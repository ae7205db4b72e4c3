open Transport

let m_calls = Obs.Metrics.counter "hrpc.client.calls"
let m_raw_calls = Obs.Metrics.counter "hrpc.client.raw_calls"
let m_errors = Obs.Metrics.counter "hrpc.client.errors"
let m_retries = Obs.Metrics.counter "hrpc.client.retries"
let m_call_ms = Obs.Metrics.histogram "hrpc.client.call_ms"
let m_backoff_ms = Obs.Metrics.histogram "hrpc.client.backoff_ms"

(* The caller's retry policy, validated, or the default one. *)
let resolve_policy policy =
  let p = Option.value policy ~default:Rpc.Control.default_policy in
  Rpc.Control.validate_policy p;
  p

(* One request/response exchange over the binding's transport. The
   [matches] predicate filters stale datagrams (retransmission races).

   UDP retransmits under the policy: between attempts it sleeps the
   jittered exponential-backoff pause, and each attempt's deadline
   escalates by [timeout_multiplier]. The jitter stream is seeded from
   the caller's address and the call's virtual start time, so a whole
   simulation replays byte-for-byte yet concurrent callers do not
   retry in lockstep. The schedule is built at the first retry, which
   most calls never make. TCP gets a single attempt (the transport
   itself is reliable); its connect is bounded by the attempt
   timeout. *)
let exchange stack (b : Binding.t) ~(policy : Rpc.Control.retry_policy) ~matches
    payload =
  let t0 = Sim.Engine.time () in
  let timed_out () =
    Error (Rpc.Control.Timeout { elapsed_ms = Sim.Engine.time () -. t0 })
  in
  match b.suite.Component.transport with
  | Component.T_udp ->
      let sock = Udp.bind_any stack in
      let seed =
        Int64.logxor
          (Int64.of_int32 (Netstack.ip stack))
          (Int64.bits_of_float t0)
      in
      let schedule = lazy (Rpc.Control.backoff_schedule policy ~seed) in
      let rec attempt i =
        if i > policy.Rpc.Control.attempts then timed_out ()
        else begin
          if i > 1 then begin
            Obs.Metrics.incr m_retries;
            let pause = (Lazy.force schedule).(i - 2) in
            Obs.Metrics.observe m_backoff_ms pause;
            Sim.Engine.sleep pause
          end;
          Udp.sendto sock ~dst:b.server payload;
          let deadline =
            Sim.Engine.time () +. Rpc.Control.attempt_timeout policy i
          in
          let rec wait () =
            let remaining = deadline -. Sim.Engine.time () in
            if remaining <= 0.0 then None
            else
              match Udp.recv_timeout sock remaining with
              | None -> None
              | Some (_, resp) -> if matches resp then Some resp else wait ()
          in
          match wait () with Some resp -> Ok resp | None -> attempt (i + 1)
        end
      in
      let result = attempt 1 in
      Udp.close sock;
      result
  | Component.T_tcp -> (
      let timeout = policy.Rpc.Control.attempt_timeout_ms in
      match Tcp.connect ~timeout_ms:timeout stack b.server with
      | exception Tcp.Connection_refused _ -> Error Rpc.Control.Refused
      | conn ->
          Tcp.send conn payload;
          let deadline = Sim.Engine.time () +. timeout in
          let rec wait () =
            let remaining = deadline -. Sim.Engine.time () in
            if remaining <= 0.0 then timed_out ()
            else
              match Tcp.recv_timeout conn remaining with
              | exception Tcp.Connection_closed -> Error Rpc.Control.Refused
              | None -> timed_out ()
              | Some resp -> if matches resp then Ok resp else wait ()
          in
          let result = wait () in
          Tcp.close conn;
          result)

let call_raw stack (b : Binding.t) ?policy payload =
  Obs.Metrics.incr m_raw_calls;
  let policy = resolve_policy policy in
  exchange stack b ~policy ~matches:(fun _ -> true) payload

let call_inner stack (b : Binding.t) ~procnum ~sign ~policy v =
  Wire.Idl.check ~what:"Hrpc.call args" sign.Wire.Idl.arg v;
  let rep = b.suite.Component.data_rep in
  let body = Wire.Data_rep.to_string rep sign.Wire.Idl.arg v in
  let decode_res body =
    match Wire.Data_rep.of_string rep sign.Wire.Idl.res body with
    | exception _ -> Error (Rpc.Control.Protocol_error "undecodable results")
    | res -> Ok res
  in
  match b.suite.Component.control with
  | Component.C_raw -> (
      match exchange stack b ~policy ~matches:(fun _ -> true) body with
      | Error _ as e -> e
      | Ok resp -> decode_res resp)
  | Component.C_sunrpc -> (
      let xid = Rpc.Control.next_xid () in
      let body = Trace_header.stamp_current body in
      let payload =
        Rpc.Sunrpc_wire.(
          encode
            (Call
               {
                 xid;
                 prog = Int32.of_int b.prog;
                 vers = Int32.of_int b.vers;
                 procnum = Int32.of_int procnum;
                 body;
               }))
      in
      let matches resp =
        match Rpc.Sunrpc_wire.decode resp with
        | Rpc.Sunrpc_wire.Reply r -> r.rxid = xid
        | Rpc.Sunrpc_wire.Call _ | (exception Rpc.Sunrpc_wire.Bad_message _) -> false
      in
      match exchange stack b ~policy ~matches payload with
      | Error _ as e -> e
      | Ok resp -> (
          match Rpc.Sunrpc_wire.decode resp with
          | Rpc.Sunrpc_wire.Reply r -> (
              match Rpc.Sunrpc_wire.reply_to_result r.rbody with
              | Error _ as e -> e
              | Ok body -> decode_res body)
          | Rpc.Sunrpc_wire.Call _ ->
              Error (Rpc.Control.Protocol_error "call in reply position")))
  | Component.C_courier -> (
      let transaction = Int32.to_int (Rpc.Control.next_xid ()) land 0xFFFF in
      let body = Trace_header.stamp_current body in
      let payload =
        Rpc.Courier_wire.(
          encode
            (Call { transaction; prog = Int32.of_int b.prog; vers = b.vers; procnum; body }))
      in
      let matches resp =
        match Rpc.Courier_wire.decode resp with
        | Rpc.Courier_wire.Return r -> r.transaction = transaction
        | Rpc.Courier_wire.Abort a -> a.transaction = transaction
        | Rpc.Courier_wire.Reject r -> r.transaction = transaction
        | Rpc.Courier_wire.Call _ | (exception Rpc.Courier_wire.Bad_message _) -> false
      in
      match exchange stack b ~policy ~matches payload with
      | Error _ as e -> e
      | Ok resp -> (
          match Rpc.Courier_wire.decode resp with
          | Rpc.Courier_wire.Return r -> decode_res r.body
          | Rpc.Courier_wire.Abort _ ->
              Error (Rpc.Control.Protocol_error "remote abort")
          | Rpc.Courier_wire.Reject r -> Error (Rpc.Courier_wire.reject_to_error r.code)
          | Rpc.Courier_wire.Call _ ->
              Error (Rpc.Control.Protocol_error "call in reply position")))

let call stack (b : Binding.t) ~procnum ~sign ?policy v =
  Obs.Metrics.incr m_calls;
  let policy = resolve_policy policy in
  (* The hrpc_call span is the client half of cross-hop propagation:
     call_inner stamps its (trace, id) into the call body, and the
     server's hrpc_serve span adopts it as a remote parent. *)
  Obs.Span.with_span "hrpc_call"
    ~attrs:(fun () ->
      [
        ("proc", string_of_int procnum);
        ("suite", Component.suite_name b.suite);
      ])
    (fun () ->
      Obs.Metrics.time m_call_ms (fun () ->
          let result = call_inner stack b ~procnum ~sign ~policy v in
          (match result with Error _ -> Obs.Metrics.incr m_errors | Ok _ -> ());
          result))
