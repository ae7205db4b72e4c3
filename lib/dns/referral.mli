(** Referrals and the zone cuts learned from them.

    A server that does not hold a name but knows who does answers with
    a referral: no answers, and NS records in the authority section
    naming the servers of the zone cut below it, with their addresses
    as glue in the additional section. {!Resolver}'s iterative walk and
    the HNS meta client's partition routing both read referrals with
    {!of_reply} and {!glue}, and both keep what they learn in a
    {!cuts} table, so a later name under a known cut goes straight to
    its servers. *)

(** A referral read from a reply. *)
type t = {
  cut : Name.t;  (** the owner of the first NS record *)
  ttl_ms : float;  (** the smallest NS TTL, in milliseconds *)
  servers : Name.t list;  (** the NS targets, in order *)
}

(** [of_reply reply] is [Some] referral when [reply] is positive, has
    no answers and carries NS records in its authority section. An SOA
    there without NS is negative-caching information (RFC 2308), not a
    referral. *)
val of_reply : Msg.t -> t option

(** [glue r reply ~port] — for each of [r]'s servers in order, the
    addresses of the A records that name it in [reply]'s additional
    section, at [port]. *)
val glue : t -> Msg.t -> port:int -> Transport.Address.t list

(** {1 Learned cuts} *)

(** Cuts by name, each with a value (whatever the owner routes by) and
    an expiry on the virtual clock. *)
type 'a cuts

val cuts : unit -> 'a cuts

(** [remember cuts cut ~ttl_ms v] keeps [v] for [cut] until [ttl_ms]
    from now, replacing what was there. *)
val remember : 'a cuts -> Name.t -> ttl_ms:float -> 'a -> unit

(** [covering cuts name] is the deepest unexpired cut that [name] is
    at or under, with its value. Every expired cut is dropped on the
    way. *)
val covering : 'a cuts -> Name.t -> (Name.t * 'a) option

(** Drop a cut, e.g. one whose servers stopped answering. *)
val forget : 'a cuts -> Name.t -> unit

(** Every cut held, expired ones not yet dropped included, by name. *)
val learned : 'a cuts -> (Name.t * 'a) list
