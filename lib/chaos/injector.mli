(** Compiles a {!Plan.t} into a {!Transport.Netstack.fault_oracle} and
    installs it on a netstack.

    Every injected fault — each packet dropped, delayed, or corrupted —
    is appended to a deterministic event trace (formatted with its
    virtual timestamp) and counted in the [chaos.injector.*] metrics:

    - [chaos.injector.faults_injected] — every fault decision
    - [chaos.injector.packet_drops] / [chaos.injector.packet_delays] /
      [chaos.injector.packet_corruptions] — by kind

    Corruption randomness comes from the injector's own seeded stream,
    so the same plan, seed, and workload reproduce the same trace
    byte for byte. *)

type t

(** [install ?seed plan net] replaces any oracle already on [net]. *)
val install : ?seed:int64 -> Plan.t -> Transport.Netstack.t -> t

(** Remove the oracle; the trace and counters survive. Idempotent. *)
val uninstall : t -> unit

(** Chronological fault log, e.g.
    ["  2013.400 drop tonga->niue crash:niue"]. *)
val trace : t -> string list

(** This injector's own [chaos.injector.faults_injected]. *)
val metrics : t -> Obs.Metrics.scope

val plan : t -> Plan.t

(** {1 Disk faults}

    {!Plan.Torn_write} faults target a {!Store.Disk.t} rather than the
    netstack: [install_disk] compiles them into the disk's crash-time
    fault oracle. When the disk crashes inside an active window, each
    file with unsynced bytes keeps a random non-empty prefix with the
    plan's probability (seeded, so traces are byte-identical across
    runs); torn decisions land in [chaos.injector.torn_writes] and the
    disk trace. *)

type disk_injector

(** [install_disk ?seed plan disk] replaces any oracle on [disk].
    Non-[Torn_write] faults in [plan] are ignored here. *)
val install_disk : ?seed:int64 -> Plan.t -> Store.Disk.t -> disk_injector

val uninstall_disk : disk_injector -> unit

(** Chronological torn-write log, e.g.
    ["  5200.000 torn disk0:wal.000001.wal keep=17/44"]. *)
val disk_trace : disk_injector -> string list
