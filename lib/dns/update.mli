(** Dynamic-update client for the modified BIND.

    This is the interface existing applications keep using in the
    direct-access story: they update their local name service with
    native operations, and the change is immediately visible through
    the HNS with no reregistration. It is also the HNS's own write
    path: [Hns.Meta_client] sends every meta-store transaction through
    {!send} over its HRPC transport. *)

type error = Refused | Not_zone | Server_error of Msg.rcode | Rpc_error of Rpc.Control.error

val pp_error : Format.formatter -> error -> unit

(** [send transport ~zone ops] performs one UPDATE transaction over
    [transport] (e.g. [Rpc.Rawrpc.call stack ~dst:server]). [Ok serial]
    is the serial of the zone SOA the ack carries — the serial the
    write landed at — or [None] from a server whose acks carry none.
    A reply that does not decode is [Rpc_error (Protocol_error _)]. *)
val send :
  Exchange.transport -> zone:Name.t -> Msg.update_op list -> (int32 option, error) result

(** Shorthand for a single-record add. *)
val add_rr : Exchange.transport -> zone:Name.t -> Rr.t -> (int32 option, error) result
