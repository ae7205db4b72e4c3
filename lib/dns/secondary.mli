(** Secondary (replica) zone service.

    "While the HNS is logically a single, centralized facility, its
    implementation must be distributed and replicated for the usual
    reasons of performance, availability, and scalability." BIND's
    replication is the secondary server: it polls the primary's SOA
    serial ({!Exchange.soa_serial}, 1000 ms and 3 attempts) on the
    zone's refresh interval and pulls a zone transfer only when the
    primary is ahead of it, so a primary that comes back at a lower
    serial never takes the replica backwards. A NOTIFY at a serial the
    replica already holds is acked and starts nothing.

    [attach] adds a secondary copy of a zone to an existing (usually
    otherwise-empty) {!Server} and returns a handle; the refresh
    process runs as a simulated process until {!detach}.

    With the change-propagation subsystem the poll is a backstop: the
    secondary reacts to NOTIFY pushes from the primary (when the
    deployment registered it with {!Server.register_notify}) and, in
    the default [Ixfr] mode, catches up by replaying journal deltas
    instead of re-transferring the zone — falling back to a full
    transfer transparently when the primary's journal has been
    truncated past our serial. *)

type t

(** How the secondary refreshes once the serial has advanced. *)
type mode = Axfr  (** full re-transfer, 1987 stock behaviour *) | Ixfr

(** [attach server ~primary ~zone ()] — fetches the initial copy
    synchronously (must run inside a simulated process), then polls
    and listens for NOTIFY. [refresh_ms] overrides the zone's own SOA
    refresh interval; [mode] defaults to [Ixfr]. Raises [Failure] if
    the initial transfer fails.

    [recovered] — a zone rebuilt by {!Durable.recover}: the secondary
    adopts it and skips the initial full transfer, catching up from
    its durable serial by IXFR (in [Ixfr] mode) instead. Raises
    [Invalid_argument] when its origin differs from [zone].

    [chain_depth] (default 1) records where this replica sits in a
    chained tree: 1 pulls from the true primary, depth [d] pulls from
    a depth [d-1] replica. The deepest depth attached process-wide is
    exported as the [dns.secondary.chain_depth] gauge. After any pull
    that moves the replica, the secondary calls
    {!Server.notify_downstream} so replicas registered on {e its}
    server wake next — one tree level at a time, each level bounded
    by the server's notify fan-out. Raises [Invalid_argument] when
    [chain_depth < 1]. *)
val attach :
  Server.t ->
  primary:Transport.Address.t ->
  zone:Name.t ->
  ?refresh_ms:float ->
  ?mode:mode ->
  ?chain_depth:int ->
  ?recovered:Zone.t ->
  unit ->
  t

(** The local replica's serial. *)
val serial : t -> int32

(** This replica's position in the chained tree (1 = under the
    primary). *)
val chain_depth : t -> int

(** This replica's own counts: [dns.secondary.full_transfers] (AXFR
    payloads adopted, 1 after a plain attach),
    [dns.secondary.ixfr_applied] (incremental refreshes from journal
    deltas), [dns.secondary.delta_records] (record changes those
    carried), [dns.secondary.notify_kicks] (NOTIFY pushes that
    triggered an immediate pull) and [dns.secondary.fresh_checks]
    (serial probes and IXFR pulls that found the replica current).
    Refreshes that moved the replica are full transfers plus IXFRs
    applied. *)
val metrics : t -> Obs.Metrics.scope

(** Stop refreshing (the replica keeps serving its last copy). *)
val detach : t -> unit
