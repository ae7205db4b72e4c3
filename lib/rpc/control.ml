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

(* A zero base makes every pause zero, whatever the jitter. *)
let native_policy ~attempts ~timeout =
  { default_policy with attempts; attempt_timeout_ms = timeout; backoff_base_ms = 0.0 }

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

let decode_results rep sign = function
  | Error e -> Error e
  | Ok body -> (
      match Wire.Data_rep.of_string rep sign.Wire.Idl.res body with
      | exception _ -> Error (Protocol_error "undecodable results")
      | res -> Ok res)

(* --- Procedure tables --------------------------------------------------- *)

type proc = { sign : Wire.Idl.signature; impl : Wire.Value.t -> Wire.Value.t }

type procedures = (int * int * int, proc) Hashtbl.t

let procedures () = Hashtbl.create 16

let register t ~prog ~vers ~procnum ~sign impl =
  if Hashtbl.mem t (prog, vers, procnum) then
    invalid_arg
      (Printf.sprintf "Control.register: duplicate procedure %d/%d/%d" prog vers procnum);
  Hashtbl.replace t (prog, vers, procnum) { sign; impl }

(* Whether [t] exports [prog] at a version [ok] accepts; only refused
   calls ask, so a scan is cheap enough. *)
let exports t ~prog ok = Hashtbl.fold (fun (p, v, _) _ found -> found || (p = prog && ok v)) t false

type refusal =
  | No_program
  | No_version
  | No_procedure
  | Bad_arguments
  | Crashed of string

type serve =
  trace:int ->
  parent:int ->
  procnum:int ->
  (unit -> (string, refusal) result) ->
  (string, refusal) result

let untraced ~trace:_ ~parent:_ ~procnum:_ run = run ()

let invoke t ~rep ~(serve : serve) ~prog ~vers ~procnum body =
  match Hashtbl.find_opt t (prog, vers, procnum) with
  | None ->
      Error
        (if not (exports t ~prog (fun _ -> true)) then No_program
         else if exports t ~prog (Int.equal vers) then No_procedure
         else No_version)
  | Some { sign; impl } -> (
      let trace, parent, body = Trace_header.strip body in
      match Wire.Data_rep.of_string rep sign.Wire.Idl.arg body with
      | exception _ -> Error Bad_arguments
      | arg ->
          serve ~trace ~parent ~procnum (fun () ->
              (* A crashing procedure must not take the server process
                 (and the whole simulation) down with it. *)
              match impl arg with
              | res -> Ok (Wire.Data_rep.to_string rep sign.Wire.Idl.res res)
              | exception (Failure m | Invalid_argument m) -> Error (Crashed m)))
