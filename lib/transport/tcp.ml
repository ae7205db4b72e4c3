exception Connection_refused of Address.t
exception Connection_closed

(* Handshake and per-message header cost, in bytes, added to every
   transit (IP + TCP headers). *)
let header_bytes = 40

type conn = {
  stack : Netstack.stack;
  local : Address.t;
  peer : Address.t;
  inbox : Netstack.tcp_event Sim.Engine.Mailbox.mailbox;
  out_channel : Netstack.channel;
  mutable out_half : Netstack.conn_half;
  mutable dst_stack : Netstack.stack;
  mutable send_open : bool; (* we have not sent FIN *)
  mutable recv_open : bool; (* we have not drained the peer's FIN *)
}

type listener = {
  l_stack : Netstack.stack;
  l_port : int;
  backlog : conn Sim.Engine.Mailbox.mailbox;
  mutable listening : bool;
}

let half_of_inbox inbox =
  { Netstack.deliver = (fun ev -> Sim.Engine.Mailbox.send inbox ev) }

let listen stack ~port =
  let backlog = Sim.Engine.Mailbox.create () in
  let listener = { l_stack = stack; l_port = port; backlog; listening = true } in
  let on_syn ~src ~client ~reply =
    if not listener.listening then reply Netstack.Refused
    else begin
      let net = Netstack.net stack in
      match Netstack.find_stack net src.Address.ip with
      | None -> reply Netstack.Refused
      | Some client_stack ->
          let inbox = Sim.Engine.Mailbox.create () in
          let conn =
            {
              stack;
              local = Address.make (Netstack.ip stack) port;
              peer = src;
              inbox;
              out_channel = Netstack.channel ();
              out_half = client;
              dst_stack = client_stack;
              send_open = true;
              recv_open = true;
            }
          in
          Sim.Engine.Mailbox.send backlog conn;
          reply (Netstack.Accepted (half_of_inbox inbox))
    end
  in
  Netstack.tcp_register stack ~port { on_syn };
  listener

let listener_addr l = Address.make (Netstack.ip l.l_stack) l.l_port
let accept l = Sim.Engine.Mailbox.recv l.backlog

let close_listener l =
  if l.listening then begin
    l.listening <- false;
    Netstack.tcp_unregister l.l_stack ~port:l.l_port
  end

(* A SYN or SYN-ACK lost to a partition must not hang the caller
   forever: the handshake is bounded, and a silent peer looks exactly
   like a refusing one. *)
let default_connect_timeout_ms = 30_000.0

let connect ?(timeout_ms = default_connect_timeout_ms) stack dst =
  let net = Netstack.net stack in
  let local_port = Netstack.alloc_tcp_port stack in
  let local = Address.make (Netstack.ip stack) local_port in
  match Netstack.find_stack net dst.Address.ip with
  | None -> raise (Connection_refused dst)
  | Some dst_stack ->
      let inbox = Sim.Engine.Mailbox.create () in
      let result = Sim.Engine.Ivar.create () in
      (* SYN out... *)
      Netstack.transit_ordered net ~src:stack ~dst:dst_stack ~bytes:header_bytes
        (Netstack.channel ())
        (fun () ->
          let reply r =
            (* ...SYN-ACK (or RST) back. *)
            Netstack.transit_ordered net ~src:dst_stack ~dst:stack
              ~bytes:header_bytes (Netstack.channel ())
              (fun () -> Sim.Engine.Ivar.fill result r)
          in
          match Netstack.tcp_hook dst_stack ~port:dst.Address.port with
          | Some hook -> hook.on_syn ~src:local ~client:(half_of_inbox inbox) ~reply
          | None -> reply Netstack.Refused);
      (match Sim.Engine.Ivar.read_timeout result timeout_ms with
      | None | Some Netstack.Refused -> raise (Connection_refused dst)
      | Some (Netstack.Accepted server_half) ->
          {
            stack;
            local;
            peer = dst;
            inbox;
            out_channel = Netstack.channel ();
            out_half = server_half;
            dst_stack;
            send_open = true;
            recv_open = true;
          })

let send c payload =
  if not c.send_open then raise Connection_closed;
  let net = Netstack.net c.stack in
  let half = c.out_half in
  Netstack.transit_ordered net ~src:c.stack ~dst:c.dst_stack
    ~bytes:(String.length payload + header_bytes)
    c.out_channel
    (fun () -> half.Netstack.deliver (Netstack.Tcp_data payload))

let rec recv c =
  if not c.recv_open then raise Connection_closed;
  match Sim.Engine.Mailbox.recv c.inbox with
  | Netstack.Tcp_data s -> s
  | Netstack.Tcp_fin ->
      c.recv_open <- false;
      recv c

let recv_timeout c d =
  if not c.recv_open then raise Connection_closed;
  match Sim.Engine.Mailbox.recv_timeout c.inbox d with
  | None -> None
  | Some (Netstack.Tcp_data s) -> Some s
  | Some Netstack.Tcp_fin ->
      c.recv_open <- false;
      raise Connection_closed

let close c =
  if c.send_open then begin
    c.send_open <- false;
    let net = Netstack.net c.stack in
    let half = c.out_half in
    Netstack.transit_ordered net ~src:c.stack ~dst:c.dst_stack ~bytes:header_bytes
      c.out_channel
      (fun () -> half.Netstack.deliver Netstack.Tcp_fin)
  end
