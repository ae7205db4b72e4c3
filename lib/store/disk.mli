(** A deterministic simulated block device.

    The store subsystem's substrate, playing the role
    {!Transport.Netstack} plays for packets: named append-mostly files
    over an in-memory medium, with every operation charged to the
    virtual clock through a calibrated cost model (seek, per-byte
    transfer, fsync) and counted in the [store.disk.*] metrics.

    Durability is modelled explicitly. {!append} lands bytes in a
    {e pending} (write-cache) region; {!fsync} moves pending bytes to
    the durable medium. {!crash} simulates power loss: pending bytes
    are dropped — except that an installed fault oracle (see
    {!Chaos.Injector.install_disk}) may let a {e prefix} of a file's
    unsynced tail survive, the classic torn write of a crash
    mid-commit. Readers of the post-crash image ({!durable_contents})
    see exactly what an fsck would. *)

type cost_model = {
  seek_ms : float;  (** head movement to a different file / after a sync *)
  per_byte_ms : float;  (** sequential transfer, per byte *)
  fsync_ms : float;  (** write-cache flush (rotational settle) *)
}

(** A free device for tests that measure logic, not latency. *)
val free_cost : cost_model

(** The oracle consulted for each file holding unsynced bytes when the
    device crashes: how many of the [pending] bytes reached the
    platter. [Keep_none] is the clean power loss; [Keep n] (a torn
    write) leaves the first [n] pending bytes. *)
type crash_fate = Keep_none | Keep of int

type fault_oracle = now:float -> file:string -> pending:int -> crash_fate

type t

(** [create ?name ?cost ()] — [name] identifies the device in chaos
    plans and traces (default ["disk0"]). [cost] defaults to the paper
    era's server disk (a Fujitsu-Eagle-class drive: 18 ms average
    seek, ~1.8 MB/s sustained transfer, 8.3 ms rotational settle on
    flush). *)
val create : ?name:string -> ?cost:cost_model -> unit -> t

val name : t -> string
val cost : t -> cost_model

val set_fault_oracle : t -> fault_oracle -> unit
val clear_fault_oracle : t -> unit

(** {1 I/O (virtual-ms charged)} *)

(** [append t ~file data] — returns the offset the bytes landed at
    (pending until the next {!fsync}). Sequential appends to the same
    file pay transfer only; switching files pays a seek. *)
val append : t -> file:string -> string -> int

(** Flush [file]'s pending bytes to the durable medium. *)
val fsync : t -> file:string -> unit

(** [read t ~file ~off ~len] reads from the durable image (short when
    it ends early). Charges a seek plus transfer. *)
val read : t -> file:string -> off:int -> len:int -> string

(** {1 Inspection (free — the recovery path charges via {!read})} *)

val durable_contents : t -> file:string -> string
val durable_size : t -> file:string -> int

(** Durable + pending size. *)
val size : t -> file:string -> int

(** All files with durable or pending bytes, sorted. *)
val files : t -> string list

val delete : t -> file:string -> unit

(** {1 Failure} *)

(** Power loss: every file's pending bytes are dropped, except what
    the fault oracle tears into the durable image. The device itself
    survives (it is the persistent medium). *)
val crash : t -> unit

(** This device's own [store.disk.crashes] and [store.disk.torn_writes]. *)
val metrics : t -> Obs.Metrics.scope
