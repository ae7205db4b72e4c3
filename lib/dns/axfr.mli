(** Zone-transfer client.

    The paper preloads the HNS cache with "the BIND zone transfer
    mechanism, used by BIND secondary servers to request data
    transfers from primary servers" — about 2 KB of meta-naming
    information at a measured cost of roughly 390 ms. This module is
    that mechanism: an AXFR query over TCP returning the zone's full
    record set. A connection the server closes before replying reads
    as refused, as in {!Rpc.Rawrpc.call_tcp}. *)

type error = Refused | Transfer_failed of string

val pp_error : Format.formatter -> error -> unit

(** [transfer stack ~server ~on_answers build] is one zone-transfer
    exchange over TCP ({!Exchange.call} over {!Exchange.tcp}, 10 s for
    the reply): a positive reply's answers go to [on_answers]; a
    refusal, a failed connection, a timeout or an undecodable reply is
    an [error]. {!Ixfr.fetch} shares it. *)
val transfer :
  Transport.Netstack.stack ->
  server:Transport.Address.t ->
  on_answers:(Rr.t list -> ('a, error) result) ->
  (int -> Msg.t) ->
  ('a, error) result

(** [fetch stack ~server ~zone] transfers the zone. The first record
    returned is the zone's SOA. *)
val fetch :
  Transport.Netstack.stack ->
  server:Transport.Address.t ->
  zone:Name.t ->
  (Rr.t list, error) result
