(** Per-zone append-only change journal.

    Every dynamic update the modified BIND applies is recorded here as
    a {e delta}: the concrete records the update put and deleted,
    keyed by the serial transition it caused. The journal is what lets
    a primary serve IXFR (incremental transfer, {!Ixfr}): a secondary
    or preloaded client holding serial [s] asks for "everything since
    [s]" and receives only the deltas, not the zone.

    Retention is bounded ([max_deltas]); once the journal has been
    truncated past a requested serial the server can no longer
    reconstruct the delta and must fall back to a full AXFR — the
    caller learns this from {!since} returning [None]. *)

(** One concrete record change. [Put] is an addition (or TTL
    refresh); [Del] removes the exact (name, rdata) pair. Changes are
    ordered: replaying them in sequence reproduces the primary's own
    database transition, including delete-then-re-add updates. *)
type change = Put of Rr.t | Del of Rr.t

type delta = {
  from_serial : int32;  (** zone serial before the update *)
  to_serial : int32;  (** zone serial after the update *)
  changes : change list;  (** ordered as the primary applied them *)
}

type t

(** [create ?max_deltas ?max_bytes ()] — retention bounds: delta
    count (default 64) and estimated bytes held (default unbounded).
    Whichever bound trips first sheds the oldest deltas; the byte
    total is exported as the [dns.journal.bytes] gauge. *)
val create : ?max_deltas:int -> ?max_bytes:int -> unit -> t

(** Append one delta; drops the oldest entries (counting truncations)
    when over the retention bound. *)
val record : t -> from_serial:int32 -> to_serial:int32 -> change list -> unit

(** [since t ~serial] — the contiguous chain of deltas leading from
    [serial] to the newest recorded serial, oldest first. [Some []]
    when [serial] is already the newest; [None] when the journal
    cannot bridge the gap (serial truncated away, never recorded, or
    ahead of the journal) and the caller must fall back to AXFR. *)
val since : t -> serial:int32 -> delta list option

(** All retained deltas, oldest first. *)
val deltas : t -> delta list

(** This journal's own [dns.journal.truncations]: deltas dropped to the
    retention bounds over its life. *)
val metrics : t -> Obs.Metrics.scope

val length : t -> int

(** Estimated bytes currently held (the [dns.journal.bytes] gauge). *)
val bytes : t -> int

(** Replay changes, in order, against a record store: [Put] adds,
    [Del] removes the exact record. *)
val apply_changes : Db.t -> change list -> unit
