(** Serial-stamped snapshot blobs over a simulated {!Disk}.

    Each {!save} writes one CRC-framed blob to its own file
    ([base.<serial>.snap]) and fsyncs it before pruning superseded
    snapshots, so there is always a whole snapshot on the medium: a
    crash mid-save tears the new file, its CRC fails, and
    {!load_latest} falls back to the previous one. *)

(** Keeps the newest two snapshots: the one saved and its
    predecessor. *)
val save : ?base:string -> Disk.t -> serial:int32 -> string -> unit

(** The newest snapshot whose frame verifies, with its serial.
    Charges disk reads (this is the recovery path). *)
val load_latest : ?base:string -> Disk.t -> (int32 * string) option

(** Serials of snapshots on the medium, newest first (unverified). *)
val on_disk : ?base:string -> Disk.t -> int32 list
