let agent_prog = 390200
let agent_vers = 1
let proc_find_nsm = 1
let proc_import = 2
let proc_resolve_addr = 3

let find_nsm_arg_ty =
  Wire.Idl.T_struct
    [ ("context", Wire.Idl.T_string); ("query_class", Wire.Idl.T_string) ]

let find_nsm_payload_ty =
  Wire.Idl.T_struct [ ("nsm_name", Wire.Idl.T_string); ("binding", Hrpc.Binding.idl_ty) ]

let result_union payload = Wire.Idl.T_union ([ (0, payload); (1, Wire.Idl.T_string) ], None)

let find_nsm_sign =
  Wire.Idl.signature ~arg:find_nsm_arg_ty ~res:(result_union find_nsm_payload_ty)

let import_arg_ty =
  Wire.Idl.T_struct [ ("service", Wire.Idl.T_string); ("hns_name", Hns_name.idl_ty) ]

let import_sign =
  Wire.Idl.signature ~arg:import_arg_ty ~res:(result_union Hrpc.Binding.idl_ty)

let resolve_addr_sign =
  Wire.Idl.signature ~arg:Hns_name.idl_ty ~res:(result_union Wire.Idl.T_uint)

let m_requests = Obs.Metrics.counter "hns.agent.requests"
let m_cache_hits = Obs.Metrics.counter "hns.agent.cache_hits"
let m_coalesced = Obs.Metrics.counter "hns.agent.coalesced"

type t = {
  server : Hrpc.Server.t;
  hns : Client.t;
  (* Cross-process singleflight: the agent serves every client process
     on its host, so one table here collapses duplicate in-flight work
     across all of them — whole replies, NSM data call included, not
     just the FindNSM prefix. *)
  inflight : (string, Wire.Value.t Sim.Engine.Ivar.ivar * Obs.Span.id) Hashtbl.t;
      (* ivar plus the leader's trace id: a coalesced follower's reply
         was really produced under the leader's trace, and its flight
         record says so *)
  requests : Obs.Metrics.counter;
  cache_hits : Obs.Metrics.counter;
  coalesced : Obs.Metrics.counter;
}

let ok payload = Wire.Value.Union (0, payload)
let err e = Wire.Value.Union (1, Wire.Value.Str (Errors.to_string e))

(* Serve one request through the agent's singleflight table. The
   leader computes the reply and also classifies it: an exchange that
   performed zero upstream meta lookups was answered entirely from the
   agent's shared cache. Followers joining an in-flight key are
   counted coalesced and wait for the leader's reply. *)
let singleflight t ~qname ~query_class key compute =
  Obs.Qlog.with_query ~name:qname ~query_class (fun () ->
      (* Inside the server's [hrpc_serve] span, so this is the trace
         the calling client propagated over the wire. *)
      Obs.Qlog.note_trace (Obs.Span.current_trace ());
      Obs.Metrics.incr t.requests;
      match Hashtbl.find_opt t.inflight key with
      | Some (iv, leader_trace) ->
          Obs.Metrics.incr t.coalesced;
          (* This request rides the leader's in-flight work: its record
             links the trace that actually went upstream, and the
             serving span (the agent's hrpc_serve) says so too. *)
          Obs.Qlog.note_link leader_trace;
          if Obs.Span.enabled () then begin
            Obs.Span.add_attr "coalesced" "true";
            Obs.Span.add_attr "leader_trace" (Printf.sprintf "%08x" leader_trace)
          end;
          Sim.Engine.Ivar.read iv
      | None ->
          let iv = Sim.Engine.Ivar.create () in
          Hashtbl.replace t.inflight key (iv, Obs.Span.current_trace ());
          Fun.protect
            ~finally:(fun () ->
              Hashtbl.remove t.inflight key;
              ignore
                (Sim.Engine.Ivar.fill_if_empty iv
                   (err (Errors.Meta_error "coalesced agent leader failed"))))
            (fun () ->
              let lookups () =
                Obs.Metrics.read
                  (Meta_client.metrics (Client.meta t.hns))
                  "hns.meta.remote_lookups"
              in
              let before = lookups () in
              let r = compute () in
              if lookups () = before then Obs.Metrics.incr t.cache_hits
              else Obs.Qlog.note_outcome Obs.Qlog.Miss;
              Sim.Engine.Ivar.fill iv r;
              r))

let create hns ?(linked_nsms = []) ?port ?(suite = Hrpc.Component.sunrpc_suite)
    ?service_overhead_ms () =
  let server =
    (* Concurrent dispatch is what makes the agent an agent: requests
       from different client processes must overlap to share the
       in-flight table instead of queueing behind one another. *)
    Hrpc.Server.create (Client.stack hns) ~suite ?port ?service_overhead_ms
      ~concurrent:true ~prog:agent_prog ~vers:agent_vers ()
  in
  let t =
    {
      server;
      hns;
      inflight = Hashtbl.create 8;
      requests = Obs.Metrics.owned m_requests;
      cache_hits = Obs.Metrics.owned m_cache_hits;
      coalesced = Obs.Metrics.owned m_coalesced;
    }
  in
  Hrpc.Server.register server ~procnum:proc_find_nsm ~sign:find_nsm_sign (fun v ->
      let context = Wire.Value.get_str (Wire.Value.field v "context") in
      let query_class = Wire.Value.get_str (Wire.Value.field v "query_class") in
      singleflight t ~qname:("agent-find:" ^ context) ~query_class
        ("f:" ^ context ^ "\x00" ^ query_class) (fun () ->
          match Client.find_nsm hns ~context ~query_class with
          | Error e -> err e
          | Ok resolved ->
              ok
                (Wire.Value.Struct
                   [
                     ("nsm_name", Wire.Value.Str resolved.Find_nsm.nsm_name);
                     ("binding", Hrpc.Binding.to_value resolved.Find_nsm.binding);
                   ])));
  Hrpc.Server.register server ~procnum:proc_import ~sign:import_sign (fun v ->
      let service = Wire.Value.get_str (Wire.Value.field v "service") in
      let hns_name = Hns_name.of_value (Wire.Value.field v "hns_name") in
      singleflight t
        ~qname:("agent-import:" ^ Hns_name.to_string hns_name)
        ~query_class:Query_class.hrpc_binding
        ("i:" ^ service ^ "\x00" ^ Hns_name.to_string hns_name)
        (fun () ->
          match
            Client.find_nsm hns ~context:hns_name.Hns_name.context
              ~query_class:Query_class.hrpc_binding
          with
          | Error e -> err e
          | Ok resolved -> (
              let access =
                match List.assoc_opt resolved.Find_nsm.nsm_name linked_nsms with
                | Some impl -> Nsm_intf.Linked impl
                | None -> Nsm_intf.Remote resolved.Find_nsm.binding
              in
              match
                Nsm_intf.call (Client.stack hns) access
                  ~payload_ty:Nsm_intf.binding_payload_ty ~service ~hns_name
              with
              | Error e -> err e
              | Ok None -> err (Errors.Name_not_found hns_name)
              | Ok (Some payload) -> ok payload)));
  Hrpc.Server.register server ~procnum:proc_resolve_addr ~sign:resolve_addr_sign
    (fun v ->
      let hns_name = Hns_name.of_value v in
      singleflight t
        ~qname:("agent-resolve:" ^ Hns_name.to_string hns_name)
        ~query_class:Query_class.host_address
        ("r:" ^ Hns_name.to_string hns_name) (fun () ->
          match
            Client.resolve hns ~query_class:Query_class.host_address
              ~payload_ty:Nsm_intf.host_address_payload_ty hns_name
          with
          | Error e -> err e
          | Ok None -> err (Errors.Name_not_found hns_name)
          | Ok (Some (Wire.Value.Uint _ as addr)) -> ok addr
          | Ok (Some v) ->
              err
                (Errors.Nsm_error
                   ("host-address NSM returned " ^ Wire.Value.to_string v))));
  t

let binding t = Hrpc.Server.binding t.server
let start t = Hrpc.Server.start t.server
let hns t = t.hns

let stop t = Hrpc.Server.stop t.server

(* {1 Stats} *)

let metrics t = Obs.Metrics.scope [ t.requests; t.cache_hits; t.coalesced ]

let cache_hit_ratio t =
  let leaders = Obs.Metrics.(value t.requests - value t.coalesced) in
  if leaders <= 0 then 0.0
  else float_of_int (Obs.Metrics.value t.cache_hits) /. float_of_int leaders

(* {1 Client-side wrappers} *)

let interpret decode_payload = function
  | Wire.Value.Union (0, payload) -> (
      match decode_payload payload with
      | exception Invalid_argument m -> Error (Errors.Meta_error m)
      | v -> Ok v)
  | Wire.Value.Union (1, Wire.Value.Str m) -> Error (Errors.Nsm_error m)
  | v -> Error (Errors.Meta_error ("unexpected agent result " ^ Wire.Value.to_string v))

let remote_find_nsm stack ~agent ~context ~query_class =
  let arg =
    Wire.Value.Struct
      [ ("context", Wire.Value.Str context); ("query_class", Str query_class) ]
  in
  match Hrpc.Client.call stack agent ~procnum:proc_find_nsm ~sign:find_nsm_sign arg with
  | Error e -> Error (Errors.Rpc_error e)
  | Ok v ->
      interpret
        (fun payload ->
          ( Wire.Value.get_str (Wire.Value.field payload "nsm_name"),
            Hrpc.Binding.of_value (Wire.Value.field payload "binding") ))
        v

let remote_import stack ~agent ~service hns_name =
  let arg =
    Wire.Value.Struct
      [ ("service", Wire.Value.Str service); ("hns_name", Hns_name.to_value hns_name) ]
  in
  match Hrpc.Client.call stack agent ~procnum:proc_import ~sign:import_sign arg with
  | Error e -> Error (Errors.Rpc_error e)
  | Ok v -> interpret Hrpc.Binding.of_value v

let remote_resolve_addr stack ~agent hns_name =
  match
    Hrpc.Client.call stack agent ~procnum:proc_resolve_addr
      ~sign:resolve_addr_sign (Hns_name.to_value hns_name)
  with
  | Error e -> Error (Errors.Rpc_error e)
  | Ok v ->
      interpret
        (function
          | Wire.Value.Uint ip -> ip
          | p -> invalid_arg ("agent: bad address payload " ^ Wire.Value.to_string p))
        v
