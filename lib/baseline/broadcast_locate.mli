(** The V-system alternative: decentralized name interpretation by
    broadcast (Cheriton & Mann 1984, discussed in the paper's Section
    4).

    "The alternative of locating the appropriate local name server,
    either through some multicast technique or some form of search
    path, is ... too inefficient in our environment." Here is that
    alternative, measurable: every host runs an interpreter owning
    some names; a lookup broadcasts the query and takes the first
    owner's answer. No central service, no second-party lookup — and
    one packet per host per query. *)

type interpreter

(** Start a host's interpreter owning a set of (name, binding) pairs.
    Every interpreter charges 1.5 ms for every broadcast query it
    hears, owner or not — the cost multicast imposes on bystanders. *)
val start_interpreter :
  Transport.Netstack.stack -> (string * Hrpc.Binding.t) list -> interpreter

val stop_interpreter : interpreter -> unit

(** This interpreter's own count: [baseline.broadcast.queries_heard]
    (queries it heard, including ones it did not own). *)
val metrics : interpreter -> Obs.Metrics.scope

(** [locate stack name] broadcasts and waits for the first owner.
    [Ok None] when nobody answered within the timeout. *)
val locate :
  Transport.Netstack.stack ->
  ?timeout:float ->
  string ->
  (Hrpc.Binding.t option, Rpc.Control.error) result
