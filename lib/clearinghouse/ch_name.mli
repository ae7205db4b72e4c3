(** Clearinghouse three-part names: [local:domain:organization]
    (Oppen & Dalal 1983).

    Comparison is case-insensitive, as in the original. The XDE
    machines in the HCS testbed name everything this way; the HNS maps
    a context onto a (domain, organization) pair and uses the local
    part as the individual name. *)

type t = { local : string; domain : string; org : string }

val make : local:string -> domain:string -> org:string -> t

(** Parse ["printer:cs:uw"]. Raises [Invalid_argument] unless exactly
    three nonempty colon-separated parts are present. *)
val of_string : string -> t

val to_string : t -> string
val equal : t -> t -> bool
val hash : t -> int

(** Same domain and organization. *)
val same_domain : t -> t -> bool

(** Wire shape shared with the server: a three-string struct. *)
val idl_ty : Wire.Idl.ty

val to_value : t -> Wire.Value.t

(** Raises [Invalid_argument] on a value of the wrong shape. *)
val of_value : Wire.Value.t -> t
