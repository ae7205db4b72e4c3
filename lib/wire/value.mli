(** Dynamically typed IDL values.

    HRPC stubs, NSM interfaces, and both concrete RPC systems exchange
    values of this one type; the {!Idl} descriptors say how a value is
    laid out on the wire by a given data representation (XDR for Sun
    RPC, Courier for Xerox). This is the "black box" data-representation
    component of the five-component HRPC model. *)

type t =
  | Void
  | Int of int32          (** signed 32-bit *)
  | Uint of int32         (** unsigned 32-bit, bits carried in an int32 *)
  | Hyper of int64        (** signed 64-bit *)
  | Bool of bool
  | Str of string         (** text string *)
  | Opaque of string      (** uninterpreted bytes *)
  | Enum of int           (** enumeration ordinal *)
  | Array of t list       (** variable-length homogeneous array *)
  | Struct of (string * t) list  (** fields in declaration order *)
  | Union of int * t      (** discriminant and selected arm *)
  | Opt of t option       (** XDR "pointer" / optional *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Total number of constructors in the value tree — the work measure
    used by the generic (stub-compiler-style) marshalling cost model. *)
val node_count : t -> int

(** {1 Convenience constructors and accessors}

    Accessors raise [Invalid_argument] when the value has a different
    shape; they are for unpacking values that already passed
    {!Idl.conforms}. *)

val int : int -> t
val str : string -> t

val get_int : t -> int
val get_str : t -> string
val get_bool : t -> bool
val get_array : t -> t list

(** [field v name] looks a field up in a [Struct]. *)
val field : t -> string -> t
