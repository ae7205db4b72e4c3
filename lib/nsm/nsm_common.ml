(* Per-NSM accounting under nsm.<backend>.<query-class>.*: calls,
   failures, and virtual latency. Applied where each NSM builds its
   [impl], so linked and remote access are counted alike. *)
let instrument ~name (impl : Hns.Nsm_intf.impl) : Hns.Nsm_intf.impl =
  (* Tags are free-form; fold anything outside the registry's naming
     alphabet to '-'. *)
  let name =
    String.map
      (fun c ->
        match Char.lowercase_ascii c with
        | ('a' .. 'z' | '0' .. '9' | '.' | '_' | '-') as l -> l
        | _ -> '-')
      name
  in
  let calls = Obs.Metrics.counter (Printf.sprintf "nsm.%s.calls" name) in
  let errors = Obs.Metrics.counter (Printf.sprintf "nsm.%s.errors" name) in
  let ms = Obs.Metrics.histogram (Printf.sprintf "nsm.%s.ms" name) in
  fun arg ->
    Obs.Metrics.incr calls;
    (* Tag the serving span (the server's hrpc_serve, or the caller's
       own span on the linked path) with which NSM backend answered. *)
    Obs.Span.add_attr "nsm" name;
    Obs.Metrics.time ms (fun () ->
        match impl arg with
        | v -> v
        | exception e ->
            Obs.Metrics.incr errors;
            raise e)

let serve stack ~impl ~payload_ty ~prog ?service_overhead_ms () =
  let server =
    Hrpc.Server.create stack ~suite:Hrpc.Component.sunrpc_suite
      ?service_overhead_ms ~prog ~vers:1 ()
  in
  Hrpc.Server.register server ~procnum:Hns.Nsm_intf.query_procnum
    ~sign:(Hns.Nsm_intf.query_sign ~payload_ty)
    impl;
  server

let own_cache = function
  | Some c -> c
  | None -> Hns.Cache.create ~mode:Hns.Cache.Demarshalled ()

type 'a step = ('a option, string) result

let and_then step k = match step with Ok (Some x) -> k x | Ok None -> Ok None | Error m -> Error m

(* The one NSM lookup: the cache's read-through over the backend, with
   the NSM's per-query charge on every miss and its TTL on every
   answer. A backend failure is served stale when the cache's budget
   allows, and raised otherwise. *)
let lookup cache ~tag ~service hns_name ~ty ~ttl_ms ~per_query_ms fetch =
  let key = Printf.sprintf "nsm:%s:%s!%s" tag service (Hns.Hns_name.to_string hns_name) in
  match
    Hns.Cache.through cache ~key ~ty ~fetch:(fun () ->
        Sim.Engine.charge per_query_ms;
        fetch ())
  with
  | Hns.Cache.Hit v | Hns.Cache.Stale_hit v -> Hns.Nsm_intf.found v
  | Hns.Cache.Fetched (Some v) ->
      Hns.Cache.insert cache ~key ~ty ~ttl_ms v;
      Hns.Nsm_intf.found v
  | Hns.Cache.Fetched None | Hns.Cache.Negative_hit -> Hns.Nsm_intf.not_found
  | Hns.Cache.Failed msg -> failwith msg

type directory = (string, int * int) Hashtbl.t

let directory services =
  let d = Hashtbl.create 8 in
  List.iter (fun (name, pv) -> Hashtbl.replace d name pv) services;
  d

(* ServiceName -> (prog, vers): the directory first, then "prog:vers". *)
let service_numbers d service =
  let unknown () = Error (Printf.sprintf "unknown ServiceName %S" service) in
  match Hashtbl.find_opt d service with
  | Some pv -> Ok pv
  | None -> (
      match String.split_on_char ':' service with
      | [ p; v ] -> (
          match (int_of_string_opt p, int_of_string_opt v) with
          | Some prog, Some vers -> Ok (prog, vers)
          | _ -> unknown ())
      | _ -> unknown ())

let bind_a resolver name =
  match Dns.Resolver.lookup_a resolver (Dns.Name.of_string name) with
  | Error (Dns.Resolver.Nxdomain | Dns.Resolver.No_data) -> Ok None
  | Error e -> Error (Format.asprintf "BIND lookup failed: %a" Dns.Resolver.pp_error e)
  | Ok ip -> Ok (Some ip)

let ch_retrieve stack ~server ~credentials ~domain ~org ~prop local =
  let obj = Clearinghouse.Ch_name.make ~local ~domain ~org in
  let result =
    match Clearinghouse.Ch_client.connect stack ~server ~credentials with
    | exception Transport.Tcp.Connection_refused _ ->
        Error (Clearinghouse.Ch_client.Rpc_error Rpc.Control.Refused)
    | client ->
        let result = Clearinghouse.Ch_client.retrieve_item client obj ~prop in
        Clearinghouse.Ch_client.close client;
        result
  in
  match result with
  | Error Clearinghouse.Ch_client.Not_found -> Ok None
  | Error (Clearinghouse.Ch_client.Rpc_error e) ->
      Error (Format.asprintf "Clearinghouse lookup failed: %a" Rpc.Control.pp_error e)
  | Ok bytes -> Ok (Some bytes)

let parse_dotted_quad s =
  match String.split_on_char '.' (String.trim s) with
  | [ a; b; c; d ] -> (
      match
        (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c, int_of_string_opt d)
      with
      | Some a, Some b, Some c, Some d
        when a land 0xFF = a && b land 0xFF = b && c land 0xFF = c && d land 0xFF = d ->
          Some (Int32.of_int ((a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d))
      | _ -> None)
  | _ -> None

let yp_host_addr client name =
  match Yp.Yp_client.match_ client ~map:Yp.Yp_proto.map_hosts_byname name with
  | Error e -> Error (Format.asprintf "YP lookup failed: %a" Rpc.Control.pp_error e)
  | Ok None -> Ok None
  | Ok (Some entry) -> (
      (* hosts.byname values look like "10.1.0.1 sparcstation1" *)
      let addr =
        match String.index_opt entry ' ' with Some i -> String.sub entry 0 i | None -> entry
      in
      match parse_dotted_quad addr with
      | None -> Error (Printf.sprintf "malformed hosts.byname entry %S" entry)
      | Some ip -> Ok (Some ip))

(* The Sun binding protocol: ask the host's portmapper for the
   program's port. *)
let sun_binding stack host_ip ~prog ~vers =
  match Rpc.Portmap.getport stack ~portmapper:host_ip ~prog ~vers () with
  | Error e -> Error (Format.asprintf "portmapper failed: %a" Rpc.Control.pp_error e)
  | Ok None -> Ok None
  | Ok (Some port) ->
      let binding =
        Hrpc.Binding.make ~suite:Hrpc.Component.sunrpc_suite
          ~server:(Transport.Address.make host_ip port) ~prog ~vers
      in
      Ok (Some (Hrpc.Binding.to_value binding))
