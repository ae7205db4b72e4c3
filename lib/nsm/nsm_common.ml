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

let serve stack ~impl ~payload_ty ~prog ?(vers = 1)
    ?(suite = Hrpc.Component.sunrpc_suite) ?port ?service_overhead_ms () =
  let server =
    Hrpc.Server.create stack ~suite ?port ?service_overhead_ms ~prog ~vers ()
  in
  Hrpc.Server.register server ~procnum:Hns.Nsm_intf.query_procnum
    ~sign:(Hns.Nsm_intf.query_sign ~payload_ty)
    impl;
  server

let cache_key ~tag ~service hns_name =
  Printf.sprintf "nsm:%s:%s!%s" tag service (Hns.Hns_name.to_string hns_name)

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
