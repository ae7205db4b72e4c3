(** Resource records.

    Includes the classic 1987 types plus [UNSPEC] — BIND's
    type-103 "data of unspecified format", which is exactly the
    extension [Schwartz 1987] made to let the modified BIND store HNS
    meta-naming information of arbitrary type. *)

type soa = {
  mname : Name.t;      (** primary server *)
  rname : Name.t;      (** responsible mailbox *)
  serial : int32;
  refresh : int32;
  retry : int32;
  expire : int32;
  minimum : int32;     (** default TTL *)
}

type rdata =
  | A of Transport.Address.ip
  | Ns of Name.t
  | Cname of Name.t
  | Soa of soa
  | Ptr of Name.t
  | Hinfo of string * string  (** cpu, os *)
  | Mx of int * Name.t        (** preference, exchange *)
  | Txt of string list
  | Unspec of string          (** uninterpreted bytes (modified BIND) *)

(** Query/record types, by RFC 1035 number (UNSPEC is BIND's 103). *)
type rtype =
  | T_a
  | T_ns
  | T_cname
  | T_soa
  | T_ptr
  | T_hinfo
  | T_mx
  | T_txt
  | T_unspec
  | T_ixfr  (** query-only (RFC 1995 incremental transfer) *)
  | T_axfr  (** query-only *)
  | T_any   (** query-only *)

(** Record classes; [C_none]/[C_any] appear only inside dynamic-update
    messages (RFC 2136 encoding: delete-specific / delete-rrset). *)
type rclass = C_in | C_none | C_any

type t = { name : Name.t; ttl : int32; rclass : rclass; rdata : rdata }

val rtype_code : rtype -> int
val rtype_of_code : int -> rtype option
val rtype_name : rtype -> string
val rclass_code : rclass -> int
val rclass_of_code : int -> rclass option

(** The type a given rdata is an instance of. *)
val rdata_type : rdata -> rtype

(** Does a record of this concrete type answer a query of [qtype]?
    ([T_any] matches everything; [T_axfr] matches nothing here —
    transfers are handled separately.) *)
val matches : qtype:rtype -> rtype -> bool

(** A record of class [C_in]; [ttl] defaults to 3600 s. *)
val make : ?ttl:int32 -> Name.t -> rdata -> t

(** The serial of the first SOA among [records], if any: what an SOA
    probe's answers, an update ack, a NOTIFY or an IXFR request
    carries. *)
val first_serial : t list -> int32 option
val equal_rdata : rdata -> rdata -> bool
val pp_rdata : Format.formatter -> rdata -> unit
val pp : Format.formatter -> t -> unit
