(** ypbind/ypmatch: the NIS client side. *)

type t

val create :
  Transport.Netstack.stack -> server:Transport.Address.t -> domain:string -> t

(** Does the server serve our domain? *)
val check_domain : t -> (bool, Rpc.Control.error) result

(** [match_ t ~map key] — [Ok None] when the key is unbound. *)
val match_ : t -> map:string -> string -> (string option, Rpc.Control.error) result

(** Enumerate a whole map via FIRST/NEXT. *)
val all : t -> map:string -> ((string * string) list, Rpc.Control.error) result
