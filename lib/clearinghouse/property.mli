(** Clearinghouse properties: each named object carries a set of
    (property-number, value) pairs, where a value is either an
    uninterpreted {e item} or a {e group} of names. *)

type value = Item of string | Group of Ch_name.t list

type t = { prop : int; value : value }

(** Well-known property numbers used in this repository (the numeric
    values follow the Clearinghouse entry-format conventions). *)
module Id : sig
  (** network address of a host or service *)
  val address : int

  (** marshalled binding info for a service *)
  val service_binding : int

  val mailboxes : int
  val members : int
  val description : int
end

val item : int -> string -> t
val group : int -> Ch_name.t list -> t
