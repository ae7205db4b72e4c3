let query_procnum = 1
let nsm_prog_base = 390100

let arg_ty =
  Wire.Idl.T_struct [ ("service", Wire.Idl.T_string); ("hns_name", Hns_name.idl_ty) ]

let result_ty ~payload_ty =
  Wire.Idl.T_union ([ (0, payload_ty); (1, Wire.Idl.T_void) ], None)

let query_sign ~payload_ty = Wire.Idl.signature ~arg:arg_ty ~res:(result_ty ~payload_ty)

let binding_payload_ty = Hrpc.Binding.idl_ty
let host_address_payload_ty = Wire.Idl.T_uint
let text_payload_ty = Wire.Idl.T_string

let payload_ty_of qc =
  if Query_class.equal qc Query_class.hrpc_binding then Some binding_payload_ty
  else if Query_class.equal qc Query_class.host_address then Some host_address_payload_ty
  else if Query_class.equal qc Query_class.file_location then Some text_payload_ty
  else if Query_class.equal qc Query_class.mailbox_location then Some text_payload_ty
  else None

let make_arg ~service ~hns_name =
  Wire.Value.Struct
    [ ("service", Wire.Value.Str service); ("hns_name", Hns_name.to_value hns_name) ]

let parse_arg v =
  ( Wire.Value.get_str (Wire.Value.field v "service"),
    Hns_name.of_value (Wire.Value.field v "hns_name") )

let found payload = Wire.Value.Union (0, payload)
let not_found = Wire.Value.Union (1, Wire.Value.Void)

type impl = Wire.Value.t -> Wire.Value.t

type access = Linked of impl | Remote of Hrpc.Binding.t

let m_calls = Obs.Metrics.counter "hns.nsm.calls"
let m_errors = Obs.Metrics.counter "hns.nsm.errors"
let m_call_ms = Obs.Metrics.histogram "hns.nsm.call_ms"

let interpret_result = function
  | Wire.Value.Union (0, payload) -> Ok (Some payload)
  | Wire.Value.Union (1, _) -> Ok None
  | v -> Error (Errors.Nsm_error ("unexpected NSM result " ^ Wire.Value.to_string v))

(* Shared accounting for both access paths: one span per NSM call with
   the access mode as attribute, plus call/error counters and virtual
   latency. *)
let instrumented ~access_label ~hns_name f =
  Obs.Metrics.incr m_calls;
  let t0 = Sim.Engine.time () in
  Obs.Metrics.time m_call_ms (fun () ->
      let result =
        Obs.Span.with_span "nsm_call"
          ~attrs:(fun () ->
            [ ("access", access_label); ("name", Hns_name.to_string hns_name) ])
          f
      in
      Obs.Qlog.note_hop ("nsm:" ^ access_label) (Sim.Engine.time () -. t0);
      (match result with Error _ -> Obs.Metrics.incr m_errors | Ok _ -> ());
      result)

let call_linked impl ~service ~hns_name =
  (* "C(local call) is effectively zero in the time scale of the
     other terms" — no charge for the call itself. *)
  instrumented ~access_label:"linked" ~hns_name (fun () ->
      match impl (make_arg ~service ~hns_name) with
      | v -> interpret_result v
      | exception Failure m -> Error (Errors.Nsm_error m))

let call ?policy stack access ~payload_ty ~service ~hns_name =
  let arg = make_arg ~service ~hns_name in
  match access with
  | Linked impl ->
      ignore stack;
      instrumented ~access_label:"linked" ~hns_name (fun () ->
          match impl arg with
          | v -> interpret_result v
          | exception Failure m -> Error (Errors.Nsm_error m))
  | Remote binding ->
      instrumented ~access_label:"remote" ~hns_name (fun () ->
          let sign = query_sign ~payload_ty in
          match
            Hrpc.Client.call stack binding ~procnum:query_procnum ~sign ?policy
              arg
          with
          | Error e -> Error (Errors.Rpc_error e)
          | Ok v -> interpret_result v)
