(** Deterministic discrete-event simulation engine with lightweight
    cooperative processes built on OCaml 5 effect handlers. A process
    performs an effect only to block; what it reads about itself comes
    from the engine's running-process slot.

    Time is virtual, measured in (simulated) {e milliseconds} — the
    unit of every measurement in the SOSP'87 paper this repository
    reproduces. Processes are plain [unit -> unit] functions that may
    block with {!sleep}, {!Ivar.read} or {!Mailbox.recv}; the engine
    resumes them at the right virtual instant. Execution order is a
    deterministic function of the program alone: simultaneous events
    fire in scheduling order (FIFO per timestamp).

    A process must only be spawned and run from within a single
    engine; the engine is not thread-safe and never needs to be. *)

type t

(** Simulated time in milliseconds since {!create}. *)
type time = float

val create : unit -> t

(** Current virtual time. Outside of [run] this is the time at which
    the last run stopped (initially [0.]). *)
val now : t -> time

(** [spawn t ?name f] schedules process [f] to start at the current
    virtual time. [name] is used in traces and error reports. *)
val spawn : t -> ?name:string -> (unit -> unit) -> unit

(** [at t delay f] schedules plain callback [f] (not a process; it must
    not block) [delay] ms from now. *)
val at : t -> time -> (unit -> unit) -> unit

(** Run until no events remain. Processes blocked forever (e.g. servers
    waiting for requests) do not prevent termination. Exceptions
    escaping a process are re-raised out of [run], wrapped in
    {!Process_failure}.

    A timeout ({!Ivar.read_timeout}, {!Mailbox.recv_timeout}) whose
    wait is answered early never runs. [run] still ends with the clock
    at the latest deadline any such timeout had, when that is later
    than the last event that ran: where firing it would have left the
    clock. *)
val run : t -> unit

(** [run_until t deadline] runs events with timestamp [<= deadline],
    then sets the clock to [deadline] if the clock is behind it. *)
val run_until : t -> time -> unit

(** Number of events run so far (a determinism fingerprint). A timeout
    whose wait was answered early never runs and is not counted. *)
val events_executed : t -> int

(** Number of events in the queue: timed events and those due at the
    current instant with no delay (spawns, wakes, answered waits, and
    {!at} callbacks with a zero delay), counting the timeouts of
    answered waits that it has not yet dropped. The engine drops those
    in one pass once there are at least 32 and they are more than half
    of its timed events, so it never holds more than twice its live
    events, or 31 more than them, whichever is larger. *)
val pending : t -> int

exception Process_failure of string * exn

(** {1 The running process}

    The engine keeps the process whose code is executing in one slot.
    It sets the slot when it starts or resumes a process, and puts back
    the previous value when the process blocks, returns or raises.
    Top-level code and {!at} callbacks run in no process, except that
    an engine run from inside another engine's process runs its {!at}
    callbacks in that process. The operations below read the slot, so
    they can be called anywhere; only [spawn_child] needs a process. *)

(** Virtual time of the running process's engine; [0.] when no
    process runs. *)
val time : unit -> time

(** Process id of the running process: a deterministic counter
    assigned at spawn (in spawn order, starting at 1), so identities
    keyed by it replay identically across same-seed runs. [0] when no
    process runs. *)
val self_pid : unit -> int

(** Spawn a process on the running process's engine, as {!spawn}
    would. Raises [Invalid_argument] when no process runs. *)
val spawn_child : ?name:string -> (unit -> unit) -> unit

(** [charge d] charges [d] ms of virtual time to the running process:
    it sleeps when [d > 0.] and a process runs, and otherwise does
    nothing. It never yields at [0.]. *)
val charge : time -> unit

(** {1 Operations usable only inside a process} *)

(** Block the calling process for [d] ms ([d >= 0]). *)
val sleep : time -> unit

(** {1 Write-once synchronization variables} *)

module Ivar : sig
  type 'a ivar

  val create : unit -> 'a ivar

  (** [fill iv v] wakes all readers at the current instant.
      Raises [Invalid_argument] if already full. It performs no
      effect, so it works anywhere, {!at} callbacks included. *)
  val fill : 'a ivar -> 'a -> unit

  (** Like [fill] but returns [false] instead of raising when full.
      It performs no effect either. *)
  val fill_if_empty : 'a ivar -> 'a -> bool

  val is_full : 'a ivar -> bool
  val peek : 'a ivar -> 'a option

  (** Block until filled. Must be called from within a process. *)
  val read : 'a ivar -> 'a

  (** [read_timeout iv d] is [Some v] if [iv] is filled within [d] ms,
      [None] otherwise. A fill cancels the timeout. Must be called from
      within a process. *)
  val read_timeout : 'a ivar -> time -> 'a option
end

(** {1 Unbounded FIFO channels} *)

module Mailbox : sig
  type 'a mailbox

  val create : unit -> 'a mailbox

  (** Never blocks and performs no effect, so it works anywhere, {!at}
      callbacks included. Wakes one blocked receiver, FIFO. *)
  val send : 'a mailbox -> 'a -> unit

  (** Block until a message is available. In-process only. *)
  val recv : 'a mailbox -> 'a

  (** [recv_timeout mb d] waits at most [d] ms; a message cancels the
      timeout. In-process only. *)
  val recv_timeout : 'a mailbox -> time -> 'a option

  val try_recv : 'a mailbox -> 'a option

  (** Messages currently queued (excluding blocked receivers). *)
  val length : 'a mailbox -> int
end
