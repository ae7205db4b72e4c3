type error =
  | Timeout of { elapsed_ms : float }
  | Prog_unavailable
  | Proc_unavailable
  | Garbage_args
  | Refused
  | Protocol_error of string

let pp_error ppf = function
  | Timeout { elapsed_ms } ->
      Format.fprintf ppf "timeout after %.0f ms" elapsed_ms
  | Prog_unavailable -> Format.pp_print_string ppf "program unavailable"
  | Proc_unavailable -> Format.pp_print_string ppf "procedure unavailable"
  | Garbage_args -> Format.pp_print_string ppf "garbage arguments"
  | Refused -> Format.pp_print_string ppf "refused"
  | Protocol_error s -> Format.fprintf ppf "protocol error: %s" s

let error_to_string e = Format.asprintf "%a" pp_error e

exception Rpc_failure of error

let xid_counter = ref 0l

let next_xid () =
  xid_counter := Int32.add !xid_counter 1l;
  !xid_counter

let with_retries ~attempts ~timeout ?(backoff = 2.0) f =
  if attempts < 1 then invalid_arg "Control.with_retries: attempts must be >= 1";
  let rec go n timeout =
    match f ~timeout with
    | Some _ as r -> r
    | None -> if n <= 1 then None else go (n - 1) (timeout *. backoff)
  in
  go attempts timeout

(* --- Retry policy ---------------------------------------------------- *)

type retry_policy = {
  attempts : int;
  attempt_timeout_ms : float;
  timeout_multiplier : float;
  backoff_base_ms : float;
  backoff_multiplier : float;
  backoff_cap_ms : float;
  jitter_ratio : float;
  jitter_seed : int64;
}

let default_policy =
  {
    attempts = 3;
    attempt_timeout_ms = 1000.0;
    timeout_multiplier = 2.0;
    backoff_base_ms = 100.0;
    backoff_multiplier = 2.0;
    backoff_cap_ms = 2000.0;
    jitter_ratio = 0.1;
    jitter_seed = 0x5DEECE66DL;
  }

let validate_policy p =
  if p.attempts < 1 then invalid_arg "Control: policy attempts must be >= 1";
  if p.attempt_timeout_ms <= 0.0 then
    invalid_arg "Control: policy attempt_timeout_ms must be > 0";
  if p.jitter_ratio < 0.0 || p.jitter_ratio >= 1.0 then
    invalid_arg "Control: policy jitter_ratio out of [0,1)"

let attempt_timeout p i =
  if i < 1 then invalid_arg "Control.attempt_timeout: attempt index from 1";
  p.attempt_timeout_ms *. (p.timeout_multiplier ** float_of_int (i - 1))

let backoff_schedule p ~seed =
  validate_policy p;
  let n = max 0 (p.attempts - 1) in
  let rng = Sim.Rng.create ~seed:(Int64.logxor seed p.jitter_seed) in
  let delays = Array.make n 0.0 in
  let prev = ref 0.0 in
  for i = 0 to n - 1 do
    let nominal = p.backoff_base_ms *. (p.backoff_multiplier ** float_of_int i) in
    let jittered =
      if p.jitter_ratio <= 0.0 then nominal
      else
        (* Uniform in nominal * [1 - ratio, 1 + ratio]. *)
        nominal *. (1.0 +. (p.jitter_ratio *. (Sim.Rng.float rng 2.0 -. 1.0)))
    in
    (* Clamping to the previous delay keeps the sequence monotone even
       when a small jitter draw follows a large one; the cap bounds it. *)
    let d = Float.min p.backoff_cap_ms (Float.max !prev jittered) in
    prev := d;
    delays.(i) <- d
  done;
  delays

let retry_budget_ms p =
  validate_policy p;
  let budget = ref 0.0 in
  for i = 1 to p.attempts do
    budget := !budget +. attempt_timeout p i
  done;
  for i = 0 to p.attempts - 2 do
    let nominal = p.backoff_base_ms *. (p.backoff_multiplier ** float_of_int i) in
    budget :=
      !budget +. Float.min p.backoff_cap_ms (nominal *. (1.0 +. p.jitter_ratio))
  done;
  !budget
