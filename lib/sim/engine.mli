(** Deterministic discrete-event simulation engine with lightweight
    cooperative processes built on OCaml 5 effect handlers.

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

(** Number of events in the queue, counting the timeouts of answered
    waits that it has not yet dropped. The engine drops those in one
    pass once there are at least 32 and they are more than half of the
    queue, so it never holds more than twice its live events, or 31
    more than them, whichever is larger. *)
val pending : t -> int

exception Process_failure of string * exn

(** {1 Operations usable only inside a process} *)

(** Block the calling process for [d] ms ([d >= 0]). *)
val sleep : time -> unit

(** Yield to other processes runnable at the same instant. *)
val yield : unit -> unit

(** Virtual time as seen by the calling process. *)
val time : unit -> time

(** Spawn a sibling process from within a process. *)
val spawn_child : ?name:string -> (unit -> unit) -> unit

(** The engine the calling process runs in. *)
val self_engine : unit -> t

(** Name of the calling process (["anon"] when unnamed). *)
val self_name : unit -> string

(** Process id of the calling process: a deterministic counter
    assigned at spawn (in spawn order, starting at 1), so identities
    keyed by it replay identically across same-seed runs. *)
val self_pid : unit -> int

(** {1 Write-once synchronization variables} *)

module Ivar : sig
  type 'a ivar

  val create : unit -> 'a ivar

  (** [fill iv v] wakes all readers at the current instant.
      Raises [Invalid_argument] if already full. *)
  val fill : 'a ivar -> 'a -> unit

  (** Like [fill] but returns [false] instead of raising when full. *)
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

  (** Never blocks. Wakes one blocked receiver, FIFO. *)
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
