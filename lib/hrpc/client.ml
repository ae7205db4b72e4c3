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

(* The control component: the binding's call message and the matcher
   for its reply. Sun RPC and Courier bodies carry the caller's trace
   stamp; raw control sends the marshalled arguments as they are. *)
let frame (b : Binding.t) ~procnum body =
  match b.suite.Component.control with
  | Component.C_raw -> (body, fun resp -> Some (Ok resp))
  | Component.C_sunrpc ->
      Rpc.Sunrpc.frame ~prog:b.prog ~vers:b.vers ~procnum
        (Rpc.Trace_header.stamp_current body)
  | Component.C_courier ->
      let transaction = Int32.to_int (Rpc.Control.next_xid ()) land 0xFFFF in
      Rpc.Courier_rpc.frame ~transaction ~prog:b.prog ~vers:b.vers ~procnum
        (Rpc.Trace_header.stamp_current body)

(* The transport component. UDP retransmits under the policy, counting
   each retry and its backoff pause. TCP gets a single attempt on a
   fresh connection (the transport itself is reliable); its connect is
   bounded by the attempt timeout too. *)
let exchange stack (b : Binding.t) ~policy (payload, accept) =
  match b.suite.Component.transport with
  | Component.T_udp ->
      let on_retry pause =
        Obs.Metrics.incr m_retries;
        Obs.Metrics.observe m_backoff_ms pause
      in
      Rpc.Rawrpc.exchange stack ~dst:b.server ~policy ~on_retry ~accept payload
  | Component.T_tcp ->
      let timeout = policy.Rpc.Control.attempt_timeout_ms in
      Rpc.Rawrpc.call_tcp stack ~dst:b.server ~connect_timeout_ms:timeout ~timeout ~accept
        payload

let call_raw stack (b : Binding.t) ?policy payload =
  Obs.Metrics.incr m_raw_calls;
  exchange stack b ~policy:(resolve_policy policy) (payload, fun resp -> Some (Ok resp))

let call_on exchange (b : Binding.t) ~procnum ~sign v =
  Obs.Metrics.incr m_calls;
  (* The hrpc_call span is the client half of cross-hop propagation:
     [frame] stamps its (trace, id) into the call body, and the
     server's hrpc_serve span adopts it as a remote parent. *)
  Obs.Span.with_span "hrpc_call"
    ~attrs:(fun () ->
      [
        ("proc", string_of_int procnum);
        ("suite", Component.suite_name b.suite);
      ])
    (fun () ->
      Obs.Metrics.time m_call_ms (fun () ->
          Wire.Idl.check ~what:"Hrpc.call args" sign.Wire.Idl.arg v;
          let rep = b.suite.Component.data_rep in
          let result =
            Rpc.Control.decode_results rep sign
              (exchange (frame b ~procnum (Wire.Data_rep.to_string rep sign.Wire.Idl.arg v)))
          in
          (match result with Error _ -> Obs.Metrics.incr m_errors | Ok _ -> ());
          result))

let call stack (b : Binding.t) ~procnum ~sign ?policy v =
  call_on (exchange stack b ~policy:(resolve_policy policy)) b ~procnum ~sign v
