type arrangement =
  | All_linked
  | Combined_agent
  | Remote_hns
  | Remote_nsms
  | All_remote

let arrangement_name = function
  | All_linked -> "[Client, HNS, NSMs]"
  | Combined_agent -> "[Client] [HNS, NSMs]"
  | Remote_hns -> "[HNS] [Client, NSMs]"
  | Remote_nsms -> "[NSMs] [Client, HNS]"
  | All_remote -> "[Client] [HNS] [NSMs]"

let all_arrangements =
  [ All_linked; Combined_agent; Remote_hns; Remote_nsms; All_remote ]

type env = {
  stack : Transport.Netstack.stack;
  local_hns : Client.t option;
  agent : Hrpc.Binding.t option;
  linked_nsms : string -> Nsm_intf.impl option;
}

let env ~stack ?local_hns ?agent ?(linked_nsms = []) () =
  { stack; local_hns; agent; linked_nsms = (fun n -> List.assoc_opt n linked_nsms) }

let need_local_hns env =
  match env.local_hns with
  | Some hns -> Ok hns
  | None -> Error (Errors.Meta_error "arrangement requires a local HNS instance")

let need_agent env =
  match env.agent with
  | Some b -> Ok b
  | None -> Error (Errors.Meta_error "arrangement requires an HNS agent binding")

let m_agent_failovers = Obs.Metrics.counter "hns.import.agent_failovers"

(* The agent process is down or cut off (as opposed to answering with
   an application-level error): worth resolving directly if we can. *)
let agent_unreachable = function
  | Errors.Rpc_error (Rpc.Control.Timeout _ | Rpc.Control.Refused) -> true
  | _ -> false

(* FindNSM against a locally linked HNS instance. *)
let locate_local env ~context =
  match need_local_hns env with
  | Error _ as e -> e
  | Ok hns -> (
      match Client.find_nsm hns ~context ~query_class:Query_class.hrpc_binding with
      | Error _ as e -> e
      | Ok r -> Ok (r.Find_nsm.nsm_name, r.Find_nsm.binding))

(* FindNSM according to the arrangement: locally or via the agent. An
   unreachable agent fails over to direct resolution when the client
   also holds a local HNS instance. *)
let locate env arrangement ~context =
  match arrangement with
  | All_linked | Remote_nsms -> locate_local env ~context
  | Remote_hns | All_remote -> (
      match need_agent env with
      | Error _ as e -> e
      | Ok agent -> (
          match
            Agent.remote_find_nsm env.stack ~agent ~context
              ~query_class:Query_class.hrpc_binding
          with
          | Error e when agent_unreachable e && Option.is_some env.local_hns ->
              Obs.Metrics.incr m_agent_failovers;
              Obs.Qlog.note_outcome Obs.Qlog.Failover;
              locate_local env ~context
          | outcome -> outcome))
  | Combined_agent -> Error (Errors.Meta_error "combined agent does not locate")

let nsm_access env arrangement ~nsm_name ~binding =
  match arrangement with
  | All_linked | Remote_hns -> (
      (* Prefer the instance linked with the client; fall back to the
         remote NSM when this NSM is not linked here. *)
      match env.linked_nsms nsm_name with
      | Some impl -> Nsm_intf.Linked impl
      | None -> Nsm_intf.Remote binding)
  | Remote_nsms | All_remote | Combined_agent -> Nsm_intf.Remote binding

let rec import_inner env arrangement ~service hns_name =
  match arrangement with
  | Combined_agent -> (
      match need_agent env with
      | Error _ as e -> e
      | Ok agent -> (
          match Agent.remote_import env.stack ~agent ~service hns_name with
          | Error e when agent_unreachable e && Option.is_some env.local_hns ->
              (* The combined agent crashed mid-flight: resolve
                 directly, calling the NSM through its binding. *)
              Obs.Metrics.incr m_agent_failovers;
              Obs.Qlog.note_outcome Obs.Qlog.Failover;
              import_inner env Remote_nsms ~service hns_name
          | outcome -> outcome))
  | All_linked | Remote_hns | Remote_nsms | All_remote -> (
      match locate env arrangement ~context:hns_name.Hns_name.context with
      | Error _ as e -> e
      | Ok (nsm_name, binding) -> (
          let access = nsm_access env arrangement ~nsm_name ~binding in
          match
            Nsm_intf.call env.stack access ~payload_ty:Nsm_intf.binding_payload_ty
              ~service ~hns_name
          with
          | Error _ as e -> e
          | Ok None -> Error (Errors.Name_not_found hns_name)
          | Ok (Some payload) -> (
              match Hrpc.Binding.of_value payload with
              | exception Invalid_argument m -> Error (Errors.Nsm_error m)
              | b -> Ok b)))

let import env arrangement ~service hns_name =
  let t0 = Sim.Engine.time () in
  Obs.Qlog.with_query ~name:(Hns_name.to_string hns_name)
    ~query_class:Query_class.hrpc_binding (fun () ->
      Obs.Span.with_span "import"
        ~attrs:(fun () ->
          [
            ("name", Hns_name.to_string hns_name);
            ("arrangement", arrangement_name arrangement);
          ])
        (fun () ->
          Obs.Qlog.note_trace (Obs.Span.current_trace ());
          let r = import_inner env arrangement ~service hns_name in
          (* Inside the span, so a breach's exemplar sees this trace. *)
          Obs.Slo.observe
            (Obs.Slo.get_or_create "import")
            ~ok:(Result.is_ok r)
            (Sim.Engine.time () -. t0);
          (match r with
          | Error e -> Obs.Qlog.note_error (Errors.to_string e)
          | Ok _ -> ());
          r))
