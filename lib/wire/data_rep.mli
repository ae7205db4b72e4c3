(** First-class choice of data representation.

    One of the five HRPC components. A binding names which
    representation the peer speaks; stubs marshal through this module
    so the choice is made at bind time, not at stub-generation time. *)

type t = Xdr | Courier

val name : t -> string
val of_name : string -> t option
val equal : t -> t -> bool

(** Word alignment of the representation in bytes (4 for XDR, 2 for
    Courier). *)
val alignment : t -> int

val encode : t -> ?check:bool -> Idl.ty -> Bytebuf.Wr.t -> Value.t -> unit
val decode : t -> Idl.ty -> Bytebuf.Rd.t -> Value.t
val to_string : t -> Idl.ty -> Value.t -> string

(** Raises [Xdr.Decode_error] or [Courier.Decode_error] accordingly. *)
val of_string : t -> Idl.ty -> string -> Value.t
