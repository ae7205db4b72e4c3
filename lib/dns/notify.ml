let m_sent = Obs.Metrics.counter "dns.notify.sent"
let m_acked = Obs.Metrics.counter "dns.notify.acked"
let m_failed = Obs.Metrics.counter "dns.notify.failed"
let m_ack_ms = Obs.Metrics.histogram "dns.notify.ack_ms"

let max_inflight = 8

let push stack ~zone ~on_result targets =
  if targets <> [] then begin
    (* A bounded worker pool rather than one fiber per target: with
       hundreds of subscribers an unbounded fan-out would put the
       whole list's retransmission timers in flight at once. Workers
       pull from a shared queue; scheduling is cooperative, so the
       pops never race. *)
    let queue = ref targets in
    let send target =
      Obs.Metrics.incr m_sent;
      let started = Sim.Engine.time () in
      let ok =
        match
          Exchange.call
            (Rpc.Rawrpc.call stack ~dst:target ~timeout:500.0 ~attempts:2)
            (fun id -> Msg.notify ~id ~zone:(Zone.origin zone) (Zone.soa_rr zone))
        with
        | Ok _ | Error (Rpc.Control.Protocol_error _) ->
            (* Any reply acks: even one that does not decode shows the
               target is up. *)
            Obs.Metrics.incr m_acked;
            Obs.Metrics.observe m_ack_ms (Sim.Engine.time () -. started);
            true
        | Error _ ->
            Obs.Metrics.incr m_failed;
            false
      in
      on_result target ok
    in
    let workers = min max_inflight (List.length targets) in
    for _ = 1 to workers do
      (* Receivers that miss the push catch up on their next SOA
         poll, so a dead target costs this worker only its timeout. *)
      Sim.Engine.spawn_child ~name:"bind-notify" (fun () ->
          let rec drain () =
            match !queue with
            | [] -> ()
            | target :: rest ->
                queue := rest;
                send target;
                drain ()
          in
          drain ())
    done
  end
