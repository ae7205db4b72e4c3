type udp_handler = src:Address.t -> string -> unit

let ephemeral_base = 32768

(* Process-wide totals; each network scopes its own counters from
   these, so one registry dump covers every simulated network. *)
let m_sent = Obs.Metrics.counter "transport.netstack.packets_sent"
let m_dropped = Obs.Metrics.counter "transport.netstack.packets_dropped"
let m_received = Obs.Metrics.counter "transport.netstack.packets_received"
let m_bytes = Obs.Metrics.counter "transport.netstack.bytes_sent"

type tcp_event = Tcp_data of string | Tcp_fin

type conn_half = { deliver : tcp_event -> unit }

type syn_reply = Accepted of conn_half | Refused

type tcp_listener_hook = {
  on_syn : src:Address.t -> client:conn_half -> reply:(syn_reply -> unit) -> unit;
}

type fault_verdict =
  | Fault_pass
  | Fault_drop
  | Fault_deliver of { extra_delay_ms : float; payload : string option }

type fault_oracle =
  now:float ->
  src:Sim.Topology.host ->
  dst:Sim.Topology.host ->
  payload:string option ->
  fault_verdict

type t = {
  engine : Sim.Engine.t;
  topology : Sim.Topology.t;
  drop_probability : float;
  rng : Sim.Rng.t;
  mutable next_ip : int32;
  stacks : (int32, stack) Hashtbl.t;
  by_host : (int, stack) Hashtbl.t;
  mutable oracle : fault_oracle option;
  sent : Obs.Metrics.counter;
  dropped : Obs.Metrics.counter;
  received : Obs.Metrics.counter;
  bytes : Obs.Metrics.counter;
}

and stack = {
  stack_order : int;
  net_ : t;
  stack_host : Sim.Topology.host;
  stack_ip : Address.ip;
  udp_ports : (int, udp_handler) Hashtbl.t;
  tcp_ports : (int, tcp_listener_hook) Hashtbl.t;
  mutable next_udp_ephemeral : int;
  mutable next_tcp_ephemeral : int;
}

let create ?(drop_probability = 0.0) ?(seed = 0x9E3779B9L) engine topology =
  if drop_probability < 0.0 || drop_probability >= 1.0 then
    invalid_arg "Netstack.create: drop probability out of [0,1)";
  {
    engine;
    topology;
    drop_probability;
    rng = Sim.Rng.create ~seed;
    next_ip = 0x0A000001l (* 10.0.0.1 *);
    stacks = Hashtbl.create 16;
    by_host = Hashtbl.create 16;
    oracle = None;
    sent = Obs.Metrics.owned m_sent;
    dropped = Obs.Metrics.owned m_dropped;
    received = Obs.Metrics.owned m_received;
    bytes = Obs.Metrics.owned m_bytes;
  }

let engine t = t.engine
let topology t = t.topology

let attach t host =
  if Hashtbl.mem t.by_host host.Sim.Topology.id then
    invalid_arg "Netstack.attach: host already attached";
  let stack =
    {
      stack_order = Hashtbl.length t.by_host;
      net_ = t;
      stack_host = host;
      stack_ip = t.next_ip;
      udp_ports = Hashtbl.create 8;
      tcp_ports = Hashtbl.create 8;
      next_udp_ephemeral = ephemeral_base;
      next_tcp_ephemeral = ephemeral_base;
    }
  in
  t.next_ip <- Int32.add t.next_ip 1l;
  Hashtbl.replace t.stacks stack.stack_ip stack;
  Hashtbl.replace t.by_host host.Sim.Topology.id stack;
  stack

let all_stacks t =
  Hashtbl.fold (fun _ s acc -> s :: acc) t.by_host []
  |> List.sort (fun a b -> Int.compare a.stack_order b.stack_order)

let ip s = s.stack_ip
let host s = s.stack_host
let net s = s.net_
let find_stack t ip = Hashtbl.find_opt t.stacks ip
let stack_of_host t h = Hashtbl.find_opt t.by_host h.Sim.Topology.id

let count_sent t ~bytes =
  Obs.Metrics.incr t.sent;
  Obs.Metrics.add t.bytes bytes

(* Delivery is counted when the packet's arrival event fires, so tests
   can cross-check [sent = received + dropped] once the engine is
   quiescent. *)
let deliver t k () =
  Obs.Metrics.incr t.received;
  k ()

let set_fault_oracle t oracle = t.oracle <- Some oracle
let clear_fault_oracle t = t.oracle <- None

let count_dropped t = Obs.Metrics.incr t.dropped

let random_drop t ~src ~dst =
  let crosses_wire = not (Sim.Topology.same_host src.stack_host dst.stack_host) in
  crosses_wire && t.drop_probability > 0.0
  && Sim.Rng.float t.rng 1.0 < t.drop_probability

let consult t ~src ~dst ~payload =
  match t.oracle with
  | None -> Fault_pass
  | Some oracle ->
      oracle ~now:(Sim.Engine.now t.engine) ~src:src.stack_host
        ~dst:dst.stack_host ~payload

let transit t ~src ~dst ~bytes k =
  count_sent t ~bytes;
  if random_drop t ~src ~dst then count_dropped t
  else
    match consult t ~src ~dst ~payload:None with
    | Fault_drop -> count_dropped t
    | (Fault_pass | Fault_deliver _) as verdict ->
        let extra =
          match verdict with
          | Fault_deliver { extra_delay_ms; _ } -> extra_delay_ms
          | _ -> 0.0
        in
        let delay =
          Sim.Topology.delay t.topology ~src:src.stack_host ~dst:dst.stack_host
            ~bytes
        in
        Sim.Engine.at t.engine (delay +. extra) (deliver t k)

let transit_msg t ~src ~dst ~bytes payload k =
  count_sent t ~bytes;
  if random_drop t ~src ~dst then count_dropped t
  else
    match consult t ~src ~dst ~payload:(Some payload) with
    | Fault_drop -> count_dropped t
    | (Fault_pass | Fault_deliver _) as verdict ->
        let extra, payload =
          match verdict with
          | Fault_deliver { extra_delay_ms; payload = p } ->
              (extra_delay_ms, Option.value p ~default:payload)
          | _ -> (0.0, payload)
        in
        let delay =
          Sim.Topology.delay t.topology ~src:src.stack_host ~dst:dst.stack_host
            ~bytes
        in
        Sim.Engine.at t.engine (delay +. extra) (deliver t (fun () -> k payload))

type channel = { mutable last_arrival : float }

let channel () = { last_arrival = 0.0 }

let transit_ordered t ~src ~dst ~bytes ch k =
  count_sent t ~bytes;
  (* The oracle sees ordered (TCP) segments without their payload:
     partitions and delays apply, corruption does not — the reliable
     transport's checksums would have discarded a damaged segment. *)
  match consult t ~src ~dst ~payload:None with
  | Fault_drop -> count_dropped t
  | (Fault_pass | Fault_deliver _) as verdict ->
      let extra =
        match verdict with
        | Fault_deliver { extra_delay_ms; _ } -> extra_delay_ms
        | _ -> 0.0
      in
      let delay =
        Sim.Topology.delay t.topology ~src:src.stack_host ~dst:dst.stack_host
          ~bytes
      in
      let now = Sim.Engine.now t.engine in
      let arrival = Float.max (now +. delay +. extra) ch.last_arrival in
      ch.last_arrival <- arrival;
      Sim.Engine.at t.engine (arrival -. now) (deliver t k)

let metrics t = Obs.Metrics.scope [ t.sent; t.dropped; t.received; t.bytes ]

let register_port table what port v =
  if Hashtbl.mem table port then
    invalid_arg (Printf.sprintf "Netstack: %s port %d already bound" what port);
  Hashtbl.replace table port v

let udp_register s ~port h = register_port s.udp_ports "UDP" port h
let udp_unregister s ~port = Hashtbl.remove s.udp_ports port
let udp_handler s ~port = Hashtbl.find_opt s.udp_ports port
let tcp_register s ~port h = register_port s.tcp_ports "TCP" port h
let tcp_unregister s ~port = Hashtbl.remove s.tcp_ports port
let tcp_hook s ~port = Hashtbl.find_opt s.tcp_ports port

let alloc_from table next bump =
  (* Cyclic scan: closed sockets release their ports for reuse. *)
  let span = 65536 - ephemeral_base in
  let normalize p = if p > 65535 then ephemeral_base + ((p - ephemeral_base) mod span) else p in
  let rec find p tried =
    if tried > span then invalid_arg "Netstack: ephemeral ports exhausted"
    else begin
      let p = normalize p in
      if Hashtbl.mem table p then find (p + 1) (tried + 1)
      else begin
        bump (normalize (p + 1));
        p
      end
    end
  in
  find next 0

let alloc_udp_port s =
  alloc_from s.udp_ports s.next_udp_ephemeral (fun n -> s.next_udp_ephemeral <- n)

let alloc_tcp_port s =
  alloc_from s.tcp_ports s.next_tcp_ephemeral (fun n -> s.next_tcp_ephemeral <- n)
