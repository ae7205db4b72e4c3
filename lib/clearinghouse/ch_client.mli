(** Typed Clearinghouse client over a Courier session. *)

type error = Not_found | Rpc_error of Rpc.Control.error

val pp_error : Format.formatter -> error -> unit

type t

(** [connect stack ~server ~credentials] opens a Courier session. *)
val connect :
  Transport.Netstack.stack ->
  server:Transport.Address.t ->
  credentials:Ch_proto.credentials ->
  t

val close : t -> unit
val create_object : t -> Ch_name.t -> (bool, error) result
val store_item : t -> Ch_name.t -> prop:int -> string -> (unit, error) result
val retrieve_item : t -> Ch_name.t -> prop:int -> (string, error) result
val add_member : t -> Ch_name.t -> prop:int -> Ch_name.t -> (unit, error) result
val retrieve_members : t -> Ch_name.t -> prop:int -> (Ch_name.t list, error) result
val list_objects : t -> domain:string -> org:string -> (string list, error) result
