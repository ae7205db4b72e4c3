(** Fan-out harness: the partitioned, replicated meta-store under an
    open client fleet, on the virtual clock.

    One {!run} builds a full deployment from scratch — a root meta
    server, [partitions] delegated partition primaries (NS + glue cuts
    written through {!Hns.Admin.register_partition}), and per partition
    a [chain_k]-ary tree of [replicas] IXFR-chained {!Dns.Secondary}
    replicas with NOTIFY wired down each edge — then measures four
    things:

    - an {e open read phase}: [clients] concurrent paced clients, each
      issuing [reads_per_client] cold reads (cache flushed per read)
      spread round-robin over partitions; per-server QPS comes from
      [queries_served] deltas over the phase's virtual duration, so a
      flat [primary_qps] under a growing fleet is the scale-out signal;
    - {e convergence}: one dynamic update on partition 0, timed until
      every replica in that partition's tree reports the new serial;
    - {e read-your-writes}: [rww_rounds] write-then-cold-read rounds
      from a dedicated writer, counting reads that returned a value
      older than the writer's own write ([stale_reads] — 0 with
      [read_your_writes] pinning, observable staleness without);
    - routing counters: referral chases vs cached-cut hits, reads
      routed to replicas, pinned-read primary fallbacks.

    [replicas = 0] is the single-primary baseline arm: every read lands
    on its partition primary, so [primary_qps] grows linearly with the
    fleet. Runs are deterministic: same config, same report. *)

type config = {
  label : string;  (** names the [propagation.fanout.<label>.*] rows *)
  partitions : int;
  replicas : int;  (** per partition; 0 = single-primary baseline *)
  chain_k : int;  (** replica-tree arity (children per node) *)
  clients : int;
  reads_per_client : int;
  read_interval_ms : float;  (** pacing between one client's reads *)
  contexts_per_partition : int;
  rww_rounds : int;  (** 0 skips the read-your-writes phase *)
  read_your_writes : bool;  (** serial pinning on every client *)
}

type report = {
  config : config;
  reads : int;
  failed_reads : int;
  read_ms : Sim.Stats.t;  (** per-read latency over the read phase *)
  root_qps : float;  (** root server, total *)
  primary_qps : float;  (** mean per partition primary *)
  replica_qps : float;  (** mean per replica; 0 in the baseline arm *)
  converge_ms : float;  (** update applied -> whole tree caught up *)
  chain_depth : int;  (** deepest replica attached *)
  stale_reads : int;  (** own-write reads that saw an older value *)
  primary_fallbacks : int;  (** pinned reads that conceded to primary *)
  referral_chases : int;
  referral_hits : int;
  routed_reads : int;  (** reads the replica sets steered *)
  duration_ms : float;  (** virtual duration of the read phase *)
  sim_events : int;
}

(** Build the deployment, run all phases, tear down with the engine.
    Raises [Invalid_argument] on a nonsensical config and [Failure] if
    the tree fails to converge within the 55 s backstop. *)
val run : config -> report

(** Single config point: always 2 partitions, [chain_k] 2, reads
    25 ms apart and 4 contexts per partition; by default no replicas,
    6 clients x 16 reads, no rww phase, pinning on. *)
val point :
  ?label:string ->
  ?replicas:int ->
  ?clients:int ->
  ?reads_per_client:int ->
  ?rww_rounds:int ->
  ?read_your_writes:bool ->
  unit ->
  config

(** The headline A/B: per scale point [m], [(baseline, replicated)] —
    [3m] clients against 0 replicas vs [m] replicas per partition. *)
val sweep : unit -> (config * config) list

(** The read-your-writes A/B point: 3 replicas per partition, 12
    write-then-read rounds, pinning per [pinned]. *)
val rww_config : pinned:bool -> unit -> config

val pp_report : Format.formatter -> report -> unit

(** [(name, stats)] BENCH rows under [propagation.fanout.<label>.*]:
    [primary_qps], [converge_ms], [read_ms], plus [stale_reads] when
    the config ran an rww phase. *)
val report_rows : report -> (string * Sim.Stats.t) list
