let port = 137

type interpreter = {
  sock : Transport.Udp.socket;
  names : (string, Hrpc.Binding.t) Hashtbl.t;
  mutable running : bool;
  mutable heard : int;
}

(* Wire format: query "Q<name>", response "R" ^ binding bytes. *)

let process_ms = 1.5

let start_interpreter stack names =
  let sock = Transport.Udp.bind stack ~port in
  let t = { sock; names = Hashtbl.create 8; running = true; heard = 0 } in
  List.iter (fun (n, b) -> Hashtbl.replace t.names n b) names;
  Sim.Engine.spawn_child ~name:"v-interpreter" (fun () ->
      while t.running do
        let src, payload = Transport.Udp.recv sock in
        if String.length payload >= 1 && payload.[0] = 'Q' then begin
          t.heard <- t.heard + 1;
          (* every interpreter pays to parse and check the query *)
          Sim.Engine.sleep process_ms;
          let name = String.sub payload 1 (String.length payload - 1) in
          match Hashtbl.find_opt t.names name with
          | Some binding ->
              Transport.Udp.sendto sock ~dst:src ("R" ^ Hrpc.Binding.to_bytes binding)
          | None -> ()
        end
      done);
  t

let stop_interpreter t =
  t.running <- false;
  Transport.Udp.close t.sock

let queries_heard t = t.heard

let locate stack ?(timeout = 500.0) name =
  let sock = Transport.Udp.bind_any stack in
  Transport.Udp.broadcast sock ~port ("Q" ^ name);
  let deadline = Sim.Engine.time () +. timeout in
  let rec wait () =
    let remaining = deadline -. Sim.Engine.time () in
    if remaining <= 0.0 then Ok None
    else
      match Transport.Udp.recv_timeout sock remaining with
      | None -> Ok None
      | Some (_, payload) when String.length payload >= 1 && payload.[0] = 'R' -> (
          match Hrpc.Binding.of_bytes (String.sub payload 1 (String.length payload - 1)) with
          | binding -> Ok (Some binding)
          | exception Invalid_argument m -> Error (Rpc.Control.Protocol_error m))
      | Some _ -> wait ()
  in
  let r = wait () in
  Transport.Udp.close sock;
  r
