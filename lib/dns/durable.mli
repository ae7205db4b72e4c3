(** Durable log-structured meta-store for a zone.

    The 1987 modified BIND kept the HNS meta-zone in memory and paid a
    full zone reload on restart. This layer gives a primary crash
    recovery at delta granularity over the simulated {!Store.Disk}:

    - every serial transition (dynamic update or replica catch-up) is
      spilled to a {!Store.Wal} {e before} the update is acknowledged
      — the delta hook ({!Zone.on_delta}) returns only when the WAL's
      group commit has made the record durable;
    - the on-disk delta format {e is} the IXFR wire discipline: a DNS
      message whose authority carries the from-serial SOA and whose
      answers are [new-SOA · changes · new-SOA], marshalled by
      {!Msg.encode} with name compression. Snapshots are an AXFR
      payload in the same dress;
    - every [snapshot_every] deltas the zone image is checkpointed
      ({!Store.Snapshot}) and the WAL pruned of records the snapshot
      covers;
    - {!recover} rebuilds a zone from snapshot + log tail. The
      recovered journal holds the replayed deltas, so a restarted
      primary resumes serving IXFR from its last durable serial
      instead of forcing every replica through a full transfer. *)

type config = {
  base : string;  (** file-name prefix on the disk *)
  group_window_ms : float;  (** WAL group-commit window *)
  segment_bytes : int;  (** WAL segment size *)
  snapshot_every : int;  (** deltas between automatic checkpoints *)
}

(** [{base = "zone"; group_window_ms = 2.0; segment_bytes = 64 KiB;
    snapshot_every = 32}] *)
val default_config : config

type t

(** [attach ?config disk zone] — starts spilling [zone]'s deltas to
    [disk]. Writes a bootstrap snapshot if the disk holds none, so
    {!recover} always has a base image.

    Attach at most one store per zone at a time: each [attach]
    registers its own delta hook, so two live attachments would spill
    every delta twice. {!detach} the old store before attaching a
    replacement (e.g. when re-attaching after {!recover}). *)
val attach : ?config:config -> Store.Disk.t -> Zone.t -> t

(** Stop spilling: unregister this store's delta hook from the zone.
    Idempotent. The on-disk image stays valid for {!recover}. *)
val detach : t -> unit

(** Key-coalescing compaction: fold the WAL's delta chain into a
    single delta with one surviving operation per (name, rdata) —
    last-op-wins, deletions ordered before puts — and return the
    bytes-before/after ratio. Recovery over the compacted log reaches
    the same zone state. *)
val compact : t -> float

val wal : t -> Store.Wal.t

(** This log's own [dns.durable.persisted_deltas]: deltas appended
    through the attached hook. *)
val persisted_deltas : t -> int

(** What {!recover} rebuilt, with its provenance. *)
type recovery = {
  zone : Zone.t;
  snapshot_serial : int32;  (** serial of the snapshot restored *)
  replayed_deltas : int;  (** WAL deltas applied on top *)
  skipped_deltas : int;  (** WAL deltas the snapshot already covered *)
  torn_tail : bool;  (** replay stopped at a torn/corrupt record *)
  recovery_ms : float;  (** virtual ms spent reading the disk *)
}

(** [recover ?config disk] — rebuild the zone from the newest intact
    snapshot plus the WAL tail. [None] when the disk holds no
    decodable snapshot. The recovered zone's journal contains the
    replayed deltas (it serves IXFR from the snapshot serial up);
    re-[attach] it to resume spilling. *)
val recover : ?config:config -> Store.Disk.t -> recovery option
