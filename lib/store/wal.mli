(** Append-only write-ahead log over a simulated {!Disk}.

    Records are opaque byte strings, CRC-framed with the repository's
    {!Wire.Bytebuf} primitives: a magic halfword, a 32-bit payload
    length, a CRC-32 of the payload, then the payload. The frame is
    what makes crash recovery decidable — a torn tail (a crash
    mid-commit, see {!Disk.crash}) fails its CRC and replay stops at
    the last whole record.

    Durability is group-committed: {!append} writes the frame, then
    rides the next flush. The first appender in a window becomes the
    leader — it sleeps [group_window_ms] of virtual time, fsyncs once,
    and wakes every rider. Concurrent appenders therefore share one
    fsync ([store.wal.group_commits] vs [store.wal.appends]); an
    append returns only once its record is durable.

    The log is segmented ([segment_bytes] per file); {!compact}
    rewrites the whole log through a caller-supplied coalescing
    function, which is also how a snapshot prunes the records it
    covers. *)

type t

val create :
  ?base:string ->
  ?group_window_ms:float ->
  ?segment_bytes:int ->
  Disk.t ->
  t

(** Durable on return (blocks on the group commit when called inside a
    simulated process; syncs immediately outside one). *)
val append : t -> string -> unit

(** Decoded from the durable image, oldest first, ending at the first
    torn or corrupt frame. *)
type replay = {
  records : string list;
  torn_tail : bool;  (** replay stopped at a bad frame *)
  bytes_scanned : int;
}

(** Static: read a log's durable image back (e.g. after a crash,
    before re-creating the writer). Charges disk reads. *)
val replay : ?base:string -> Disk.t -> replay

(** [compact t ~coalesce] — rewrites the log as [coalesce records]
    (oldest first in, oldest first out), fsyncs, deletes the old
    segments, and returns the bytes-before / bytes-after ratio (1.0
    when the log was empty). Also the pruning primitive: a filtering
    [coalesce] drops records a snapshot made redundant.

    Safe against concurrent {!append}s: the pass first makes every
    pending byte durable so replay sees the complete log, and holds
    new appends until the rewritten image is durable — a record acked
    by {!append} is never lost to a racing compaction (though
    [coalesce] may fold or drop it like any other committed record).
    Concurrent [compact] calls serialize. *)
val compact : t -> coalesce:(string list -> string list) -> float

val bytes : t -> int
val segments : t -> int

(** This log's own [store.wal.appends] and [store.wal.group_commits]. *)
val metrics : t -> Obs.Metrics.scope

val disk : t -> Disk.t
val base : t -> string

(** CRC-32 (IEEE), exposed for tests and snapshot framing. *)
val crc32 : string -> int32
