(** DNS message format — hand-coded marshalling, the equivalent of the
    "standard BIND library routines" whose cost Table 3.2 compares
    against the stub-generated path.

    The encoding is RFC 1035, including section 4.1.4 name
    compression (suffix pointers), plus the RFC 2136-style
    dynamic-update sections of the modified BIND. *)

type opcode = Query | Notify | Update

type rcode =
  | No_error
  | Form_err
  | Serv_fail
  | Nx_domain
  | Not_impl
  | Refused
  | Not_zone  (** update outside the server's zone *)

type question = { qname : Name.t; qtype : Rr.rtype }

(** Operations carried in the update section of an UPDATE message. *)
type update_op =
  | Add of Rr.t
  | Delete_rrset of Name.t * Rr.rtype
  | Delete_rr of Name.t * Rr.rdata
  | Delete_name of Name.t

type t = {
  id : int;
  is_response : bool;
  opcode : opcode;
  authoritative : bool;
  truncated : bool;  (** TC: answer exceeded the UDP limit *)
  recursion_desired : bool;
  recursion_available : bool;
  rcode : rcode;
  questions : question list;   (** zone section, for UPDATE *)
  answers : Rr.t list;
  updates : update_op list;    (** section 3 of an UPDATE message *)
  authority : Rr.t list;       (** section 3 of a QUERY response *)
  additional : Rr.t list;
}

exception Bad_message of string

val query : id:int -> Name.t -> Rr.rtype -> t

(** TC is clear: {!encode_for_udp} sets it when the reply does not
    fit. *)
val response : ?rcode:rcode -> ?authoritative:bool -> request:t -> Rr.t list -> t

val update_request : id:int -> zone:Name.t -> update_op list -> t

(** [notify ~id ~zone soa_rr] — an RFC 1996 NOTIFY request: the
    question names the zone, the answer section carries the primary's
    current SOA so receivers learn the new serial without a probe. *)
val notify : id:int -> zone:Name.t -> Rr.t -> t

(** The empty positive response acknowledging a NOTIFY. *)
val notify_ack : request:t -> t

(** An empty response suited to acknowledging an update. *)
val update_ack : ?rcode:rcode -> request:t -> unit -> t

(** [encode ?compress t] — [compress] (default true) emits RFC 1035
    suffix pointers; either form decodes identically. A suffix is
    pointed at only when its label list equals one already written, so
    a name with a ['.'] inside a label never shares a pointer with a
    different name that prints alike. Each message is written once,
    into a process-wide writer that no effect can interleave with. *)
val encode : ?compress:bool -> t -> string

(** [decode s] reads a message in one pass. Each label is checked and
    case-folded as it is read; a compression pointer to a name already
    decoded in [s] returns that name's labels, shared rather than read
    again. Raises [Bad_message], and nothing else, on malformed input,
    including a name over 255 bytes. *)
val decode : string -> t

(** The classic UDP payload ceiling (RFC 1035: 512 bytes). *)
val udp_payload_limit : int

(** [encode_for_udp t] is [(sent, bytes)]: [(t, encode t)] when that
    fits in {!udp_payload_limit}, encoded once. Otherwise [sent] is [t]
    with TC set and its answer, authority and additional sections
    dropped, as 1987 BIND did, and [bytes] is its encoding. *)
val encode_for_udp : t -> t * string

(** Number of answer records — the quantity the paper's marshalling
    cost model is linear in. *)
val answer_count : t -> int

val rcode_to_string : rcode -> string
val pp : Format.formatter -> t -> unit
