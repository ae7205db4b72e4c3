(** NOTIFY push (RFC 1996 discipline).

    When the modified BIND's zone serial advances it pushes a NOTIFY
    carrying the new SOA to every registered secondary / subscriber,
    making propagation push-triggered instead of bounded by the
    receivers' refresh intervals. Delivery is best-effort over UDP
    with a couple of retransmissions; a lost NOTIFY costs only
    latency — receivers keep their SOA-poll loops as the backstop, so
    chaos-dropped notifies degrade to polling, never divergence. *)

(** [push stack ~zone ~on_result targets] — fire-and-forget: a bounded
    pool of 8 worker fibers drains the target list concurrently, each send
    carrying [zone]'s current SOA and waiting briefly for the ack (a
    500 ms attempt, then one 1000 ms retry), so a large subscriber list
    never serializes behind its slowest members nor floods the net all
    at once.
    [on_result] is invoked per target with the ack outcome (from the
    worker fiber) — {!Server} uses it for subscriber liveness GC.
    Counts [dns.notify.sent] / [dns.notify.acked] /
    [dns.notify.failed] and observes the round-trip on
    [dns.notify.ack_ms]. Outside the simulation this is a no-op
    (there is no network to push on). *)
val push :
  Transport.Netstack.stack ->
  zone:Zone.t ->
  on_result:(Transport.Address.t -> bool -> unit) ->
  Transport.Address.t list ->
  unit
