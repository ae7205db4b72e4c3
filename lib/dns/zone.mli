(** A zone: an origin, its SOA, and the records below it.

    The HNS meta-BIND serves a single flat zone ([hns-meta.]); the
    public BIND serves ordinary host zones ([cs.washington.edu.]). *)

type t

(** [create ~origin ~soa records]. Every record must lie within the
    zone (raises [Invalid_argument] otherwise). An SOA record at the
    origin is synthesized from [soa]. [journal_deltas] bounds the
    zone's change journal; its byte bound is left unbounded (see
    {!Journal.create}). *)
val create :
  ?journal_deltas:int -> origin:Name.t -> soa:Rr.soa -> Rr.t list -> t

(** A zone with a boilerplate SOA, for tests and simple setups. *)
val simple : ?journal_deltas:int -> origin:Name.t -> Rr.t list -> t

val origin : t -> Name.t
val soa : t -> Rr.soa
val db : t -> Db.t

(** The zone's change journal, appended to by the dynamic-update path
    and read by the IXFR server. *)
val journal : t -> Journal.t

val serial : t -> int32

(** Called after every dynamic update. *)
val bump_serial : t -> unit

(** Adopt a primary's SOA verbatim (zone replication). *)
val set_soa : t -> Rr.soa -> unit

val in_zone : t -> Name.t -> bool

(** Handle to a registered delta hook, for {!remove_delta_hook}. *)
type hook

(** Register a delta hook, run (in registration order) after every
    serial transition is journalled — by the dynamic-update path and
    by {!apply_delta} alike. A durability layer ({!Durable}) uses this
    to spill each delta to its write-ahead log before the update is
    acknowledged; the hook blocking is what gates the ack. *)
val add_delta_hook : t -> (Journal.delta -> unit) -> hook

(** Unregister a hook; a no-op if already removed. *)
val remove_delta_hook : t -> hook -> unit

(** {!add_delta_hook} for hooks that live as long as the zone. *)
val on_delta : t -> (Journal.delta -> unit) -> unit

(** Journal one serial transition and fire the delta hooks. The
    update path must use this (not {!Journal.record} directly) so
    durability hooks observe every change. *)
val record_delta :
  t -> from_serial:int32 -> to_serial:int32 -> Journal.change list -> unit

(** The zone's SOA as a resource record at the origin. *)
val soa_rr : t -> Rr.t

(** Records for a zone transfer: SOA first, then all data records. *)
val axfr_records : t -> Rr.t list

(** Total record count including the SOA. *)
val count : t -> int

(** Apply one journal delta to this zone (a replica catching up):
    replays the changes in order, adopts the delta's [to_serial], and
    re-journals the delta so the replica can serve IXFR onwards.
    Raises [Invalid_argument] when the delta does not start at the
    zone's current serial. *)
val apply_delta : t -> Journal.delta -> unit
