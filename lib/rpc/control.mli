(** The control-protocol component shared by the concrete RPC systems:
    transaction ids, call outcomes, the retransmission policy, and the
    procedure table every Sun RPC and Courier server dispatches from.

    In the five-component HRPC model this is the piece that "tracks the
    state of a call". Both Sun RPC and Raw exchanges retransmit over
    UDP ({!Rawrpc.exchange}); Courier relies on its reliable transport. *)

(** Uniform failure vocabulary across RPC systems. *)
type error =
  | Timeout of { elapsed_ms : float }
      (** no reply within the retry budget; [elapsed_ms] is the
          cumulative virtual time spent across every attempt, not the
          last attempt's deadline *)
  | Prog_unavailable         (** no such program/remote interface *)
  | Proc_unavailable         (** no such procedure *)
  | Garbage_args             (** peer could not decode our arguments *)
  | Refused                  (** connection or binding refused *)
  | Protocol_error of string (** malformed or unexpected message *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

exception Rpc_failure of error

(** Fresh transaction id; a single global counter keeps ids unique
    across every client in a simulation, which makes traces easy to
    follow. *)
val next_xid : unit -> int32

(** {1 Retry policy}

    The full description of a retransmitting client's behaviour: how
    many attempts, how each attempt's deadline escalates, and how long
    to pause between attempts (exponential backoff with seeded jitter,
    so concurrent clients desynchronise deterministically). *)

type retry_policy = {
  attempts : int;               (** total attempts, >= 1 *)
  attempt_timeout_ms : float;   (** first attempt's deadline *)
  timeout_multiplier : float;   (** deadline growth per attempt *)
  backoff_base_ms : float;      (** nominal pause before attempt 2 *)
  backoff_multiplier : float;   (** pause growth per retry *)
  backoff_cap_ms : float;       (** upper bound on any pause *)
  jitter_ratio : float;         (** pause spread, in [0,1) *)
  jitter_seed : int64;          (** mixed into per-call jitter streams *)
}

(** 3 attempts at 1000/2000/4000 ms — the escalation the fixed retry
    always used — plus 100 ms-base doubling backoff capped at 2 s with
    10% jitter. *)
val default_policy : retry_policy

(** [native_policy ~attempts ~timeout]: [attempts] tries whose deadlines
    double from [timeout], with no pause between them — how the native
    Sun RPC and raw clients retransmit (1000, 2000 and 4000 ms by
    default). *)
val native_policy : attempts:int -> timeout:float -> retry_policy

(** Raises [Invalid_argument] on a non-positive attempt count or
    timeout, or a jitter ratio outside [0,1). *)
val validate_policy : retry_policy -> unit

(** Deadline of the [i]-th attempt (1-based). *)
val attempt_timeout : retry_policy -> int -> float

(** [backoff_schedule p ~seed] is the [attempts - 1] pauses between
    attempts. The sequence is monotone non-decreasing, bounded by
    [backoff_cap_ms], and each element stays within [jitter_ratio] of
    its nominal value (before the monotonicity clamp). The same policy
    and seed always produce the same schedule. *)
val backoff_schedule : retry_policy -> seed:int64 -> float array

(** Worst-case virtual time a call governed by [p] can take before
    surfacing [Timeout]: every attempt deadline plus every maximal
    pause. After a fault heals, a client is guaranteed to have issued
    a fresh attempt within this budget. *)
val retry_budget_ms : retry_policy -> float

(** [decode_results rep sign reply] reads an [Ok] reply body as
    [sign]'s result; a body that does not decode is
    [Protocol_error "undecodable results"], and an [Error] passes
    through. *)
val decode_results :
  Wire.Data_rep.t ->
  Wire.Idl.signature ->
  (string, error) result ->
  (Wire.Value.t, error) result

(** {1 Procedure tables}

    The procedures a server exports, keyed by (program, version,
    procedure). Native Sun RPC and Courier servers and HRPC servers all
    keep one and run every call through {!invoke}. *)

type procedures

val procedures : unit -> procedures

(** The implementation runs inside a simulated process and may sleep to
    model work. Raises [Invalid_argument] on a duplicate
    (prog, vers, procnum). *)
val register :
  procedures ->
  prog:int ->
  vers:int ->
  procnum:int ->
  sign:Wire.Idl.signature ->
  (Wire.Value.t -> Wire.Value.t) ->
  unit

(** Why a server answers a call without a result. *)
type refusal =
  | No_program       (** the program is not exported *)
  | No_version       (** the program is, but not at this version *)
  | No_procedure
  | Bad_arguments    (** the arguments do not decode *)
  | Crashed of string
      (** the procedure raised [Failure] or [Invalid_argument] *)

(** How a server runs a procedure whose arguments decoded, given the
    caller's stamped span context ({!Trace_header}): HRPC servers run it
    under their [hrpc_serve] span; native servers use {!untraced}. *)
type serve =
  trace:int ->
  parent:int ->
  procnum:int ->
  (unit -> (string, refusal) result) ->
  (string, refusal) result

val untraced : serve

(** [invoke procs ~rep ~serve ~prog ~vers ~procnum body] strips the
    trace header from [body], decodes the arguments in [rep], runs the
    procedure under [serve] and encodes its result in [rep]. *)
val invoke :
  procedures ->
  rep:Wire.Data_rep.t ->
  serve:serve ->
  prog:int ->
  vers:int ->
  procnum:int ->
  string ->
  (string, refusal) result
