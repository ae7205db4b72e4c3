(** The interim HRPC binding mechanism: replicated local files.

    "The interim HRPC binding mechanism, used prior to the
    construction of the HNS prototype, was based on information
    reregistered in replicated local files. Binding using this scheme
    took 200 msec."

    Each host holds a flat text file of (service, host) → binding
    entries, pushed out by a reregistration sweep. An import reads and
    parses the file (there is no resident daemon), paying a disk
    charge plus a per-entry parse charge — which is why the scheme
    slows down as the environment grows, one of the reasons it was
    abandoned. Entries also go stale between sweeps: lookups see
    whatever the last push contained. *)

type t

val create : ?file_read_ms:float -> ?parse_per_entry_ms:float -> unit -> t

(** Serialize one entry into the file (a push from the sweep). An
    existing (service, host) entry is replaced. *)
val register : t -> service:string -> host:string -> Hrpc.Binding.t -> unit

(** Replace the whole file, as a reregistration sweep does. *)
val replace_all : t -> (string * string * Hrpc.Binding.t) list -> unit

val entry_count : t -> int

(** Read and parse the file, then return the matching binding.
    Charges the read and parse costs. *)
val import : t -> service:string -> host:string -> (Hrpc.Binding.t, string) result
