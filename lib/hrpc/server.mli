(** Exporting a service over a chosen protocol suite.

    An HRPC server looks to clients of the emulated system exactly
    like a homogeneous peer: export with {!Component.sunrpc_suite} and
    native Sun RPC clients can call you; export with
    {!Component.courier_suite} and Courier clients can. The NSMs are
    served this way.

    Raw control cannot be exported here — raw servers {e are} the
    native message-passing programs (e.g. the BIND server). *)

type t

(** Raises [Invalid_argument] for a raw-control suite.

    [concurrent] (default false) makes the UDP service loop dispatch
    each request on its own fiber instead of serially, so procedures
    that block on downstream calls don't convoy unrelated requests.
    Keep the default for cost-model servers whose single service
    fiber {e is} the modelled CPU; turn it on for proxies like the
    HNS agent, where concurrent identical requests must be able to
    meet in a coalescing table. (TCP service already runs one fiber
    per connection.) *)
val create :
  Transport.Netstack.stack ->
  suite:Component.protocol_suite ->
  ?port:int ->
  ?service_overhead_ms:float ->
  ?concurrent:bool ->
  prog:int ->
  vers:int ->
  unit ->
  t

val register :
  t ->
  procnum:int ->
  sign:Wire.Idl.signature ->
  (Wire.Value.t -> Wire.Value.t) ->
  unit

val start : t -> unit
val stop : t -> unit

(** The binding clients use to call this server. *)
val binding : t -> Binding.t
