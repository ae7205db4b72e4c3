(** The Clearinghouse's object database: named objects and their
    property sets. Purely in-memory state; the disk-access cost the
    paper attributes to the real Clearinghouse is charged by the
    server, not here. *)

type t

val create : unit -> t

(** [create_object t name] is [false] when the object exists. *)
val create_object : t -> Ch_name.t -> bool

val delete_object : t -> Ch_name.t -> bool
val exists : t -> Ch_name.t -> bool

(** Replaces any previous value of the property. Creates the object
    implicitly when absent (matching Clearinghouse AddItemProperty
    tolerance). *)
val store : t -> Ch_name.t -> Property.t -> unit

val retrieve : t -> Ch_name.t -> int -> Property.value option

(** Adds to a group property, creating it as an empty group first if
    needed. Raises [Invalid_argument] when the property is an item. *)
val add_member : t -> Ch_name.t -> int -> Ch_name.t -> unit

val members : t -> Ch_name.t -> int -> Ch_name.t list

(** Local parts of all objects in a (domain, org), sorted. *)
val list_objects : t -> domain:string -> org:string -> string list
