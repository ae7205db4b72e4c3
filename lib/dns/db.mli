(** Mutable resource-record store with rrset semantics: the data a
    zone is authoritative for.

    Records are grouped by owner name; duplicates (same name and
    rdata) are kept single. All operations used by the dynamic-update
    path of the modified BIND are provided. *)

type t

val create : unit -> t

(** Idempotent on exact (name, rdata) duplicates, which refresh TTL. *)
val add : t -> Rr.t -> unit

(** All records at the name with the given concrete type
    ([Rr.T_any] returns everything at the name). *)
val lookup : t -> Name.t -> Rr.rtype -> Rr.t list

val has_name : t -> Name.t -> bool
val remove_rrset : t -> Name.t -> Rr.rtype -> unit
val remove_rr : t -> Name.t -> Rr.rdata -> unit
val remove_name : t -> Name.t -> unit

(** Every record, grouped by name in no particular order. *)
val all : t -> Rr.t list

val count : t -> int
val clear : t -> unit
