(** Open-loop load harness: a million-client confederation.

    Closed-loop drivers (every bench loop so far) wait for each reply
    before issuing the next request, so a slow server quietly slows
    the {e offered} load and hides its own queueing delay. An
    open-loop driver fixes the arrival process instead: requests
    arrive on a schedule drawn up front from a seeded RNG, each in its
    own fiber, whether or not earlier ones have completed — latency is
    measured from the {e scheduled} arrival instant, so queueing delay
    is part of the number (the coordinated-omission-free view).

    [run] simulates a client population of [clients] (default one
    million) spread over a fleet of agent-equipped hosts plus a legacy
    pool of bundle-less direct resolvers, driving Zipf-distributed
    resolves through the {!Scenario} confederation entirely on the
    virtual clock: Poisson or diurnal arrivals, an optional flash
    crowd concentrated on one name, optional partition storms from
    {!Chaos}, and periodic agent cache churn (the event that consumes
    the meta-BIND's prefetch hints). Everything is deterministic in
    [seed]: same seed, byte-identical report. *)

(** {1 Arrival processes} *)

type arrival =
  | Poisson of { rate_per_s : float }
      (** Memoryless arrivals: exponential interarrivals with mean
          [1/rate_per_s]. *)
  | Diurnal of {
      base_per_s : float;
      peak_per_s : float;
      period_ms : float;
      phase_ms : float;
    }
      (** Sinusoidal day/night modulation on the {e virtual} clock:
          rate(t) = base + (peak - base) * (1 - cos 2pi(t+phase)/period)/2,
          sampled by Lewis thinning against [peak_per_s]. [phase_ms]
          = 0 starts at the trough. *)

(** Instantaneous rate (per second) at virtual offset [t_ms]. *)
val rate_at : arrival -> float -> float

(** Draw a full arrival schedule for [duration_ms] of virtual time:
    strictly increasing offsets in milliseconds from the schedule
    origin. Pure function of ([arrival], [rng]); no simulation
    needed. *)
val schedule : arrival -> rng:Sim.Rng.t -> duration_ms:float -> float list

(** FNV-1a over the raw float bits of a schedule (or any sample
    list) — the determinism fingerprint tests compare. *)
val schedule_digest : float list -> string

(** {1 Generic drivers}

    Both must run inside a simulated process ({!Scenario.in_sim}). *)

type drive_result = { latency : Sim.Stats.t; errors : int }

(** Open-loop: spawn a fiber per arrival at its scheduled offset
    (relative to the virtual time at the call); [submit i] performs
    arrival [i] and reports success. Latency samples run from the
    scheduled arrival to completion — service time {e plus} queueing
    delay. Returns when every arrival has completed. *)
val drive : times:float list -> submit:(int -> bool) -> unit -> drive_result

(** Closed-loop comparator: [n] sequential submissions, each latency
    measured from its own start — queueing a closed loop cannot see. *)
val drive_closed : n:int -> submit:(int -> bool) -> unit -> drive_result

(** {1 The confederation harness} *)

type ranking =
  | Decayed  (** {!Dns.Hotrank.Decayed}, half-life 300 s. *)
  | Sliding
      (** {!Dns.Hotrank.Sliding_count} over a 10 s window — the naive
          recency-windowed baseline the A/B bench measures. *)

(** A flash crowd: between [at_ms] and [at_ms +. len_ms] (offsets into
    the measured window), [fraction] of arrivals are redirected to the
    single Zipf rank [rank] (a mid-tail name outside the steady
    set). *)
type flash = { at_ms : float; len_ms : float; fraction : float; rank : int }

(** Partition storms: [count] partitions isolating the public BIND
    from every harness host, starting at [at_ms], one every
    [every_ms], each healing after [hold_ms]. *)
type storm = { at_ms : float; every_ms : float; hold_ms : float; count : int }

type config = {
  label : string;  (** bench row prefix: [loadharness.<label>.*] *)
  seed : int;
  clients : int;  (** simulated client population (ids, not fibers) *)
  agent_hosts : int;  (** hosts running a shared v2 agent *)
  legacy_hosts : int;  (** bundle-less direct-resolver hosts *)
  legacy_fraction : float;  (** arrivals routed to the legacy pool *)
  ch_fraction : float;  (** arrivals resolving the Clearinghouse name *)
  names : int;  (** synthetic host population in the public zone *)
  zipf_s : float;
  steady_k : int;  (** working-set head: ranks [0, steady_k) *)
  arrival : arrival;
  duration_ms : float;  (** measured window (virtual) *)
  churn_every_ms : float;
      (** each agent flushes its shared cache and refetches the bundle
          (reseeding prefetch hints) on this period, staggered *)
  ranking : ranking;
  hand_codec : bool;
      (** agent-fleet clients use the hand-marshalled hot codec
          ({!Calib.hand_cost}); the legacy pool always keeps the
          generated stubs — heterogeneity is the point *)
  meta_replicas : int;
      (** meta-zone replica servers chained under the primary; every
          fleet client routes its meta reads over them. 0 = the
          single-primary deployment *)
  flash : flash option;
  storm : storm option;
  slo_target_ms : float;  (** steady-resolve SLO target *)
  slo_objective : float;
}

type report = {
  config : config;
  arrivals : int;
  errors : int;
  all : Sim.Stats.t;  (** every measured resolve *)
  steady : Sim.Stats.t;
      (** agent-path resolves of steady-set names — the SLO population *)
  flashed : Sim.Stats.t;  (** resolves of the flash-crowd name *)
  steady_compliance : float;
      (** fraction of steady samples within [slo_target_ms] (computed
          from the samples, so it is deterministic per run) *)
  bind_qps : float;  (** public BIND queries/s over the window *)
  meta_qps : float;  (** meta-BIND {e primary} queries/s over the window *)
  meta_replica_qps : float;
      (** mean queries/s per meta replica over the window; 0 when
          [meta_replicas = 0] *)
  wire_mb : float;  (** bytes put on the wire during the window *)
  sim_events : int;  (** engine events executed, total *)
  prefetch_seeded : int;  (** hint rows the agent fleet seeded *)
  prefetch_hits : int;  (** resolves answered straight from a hint *)
  digest : string;  (** {!schedule_digest} of the arrival schedule *)
}

(** Build the scenario, attach the fleets, warm the caches, and drive
    the schedule. Deterministic in [config]. *)
val run : config -> report

(** Small-N preset for [make check] / CI smoke (a few thousand
    clients, one virtual minute), labelled ["smoke"] (["smoke_naive"]
    under [Sliding]). *)
val smoke : ?ranking:ranking -> unit -> config

(** The bench suite: poisson + diurnal baselines, the
    flash.decayed/flash.sliding A/B pair at a million clients, and a
    partition-storm run. *)
val bench_configs : unit -> config list

val pp_report : Format.formatter -> report -> unit

(** Rows for {!Obs.Export.write_bench_json}:
    [loadharness.<label>.{resolve,steady,flash}_ms] plus
    single-sample [bind_qps] / [meta_qps] / [meta_replica_qps] /
    [wire_kb_per_s] rows. *)
val report_rows : report -> (string * Sim.Stats.t) list
