type fault =
  | Crash of { host : string; from_ms : float; until_ms : float }
  | Partition of {
      group_a : string list;
      group_b : string list;
      from_ms : float;
      until_ms : float;
    }
  | Latency of {
      hosts : string list;
      from_ms : float;
      until_ms : float;
      add_ms : float;
      ramp : bool;
    }
  | Corrupt of {
      dst_hosts : string list;
      from_ms : float;
      until_ms : float;
      probability : float;
    }
  | Torn_write of {
      host : string;
      from_ms : float;
      until_ms : float;
      probability : float;
    }

type t = fault list

let check_window ~what ~at ~heal_at =
  if at < 0.0 then invalid_arg (what ^ ": fault start before t=0");
  if heal_at <= at then invalid_arg (what ^ ": heal time not after start")

let crash ~host ~at ?(heal_at = infinity) () =
  if heal_at <= at then invalid_arg "Chaos.Plan.crash: heal time not after crash";
  Crash { host; from_ms = at; until_ms = heal_at }

let partition ~group_a ~group_b ~at ~heal_at =
  check_window ~what:"Chaos.Plan.partition" ~at ~heal_at;
  if group_a = [] || group_b = [] then
    invalid_arg "Chaos.Plan.partition: empty host group";
  Partition { group_a; group_b; from_ms = at; until_ms = heal_at }

let latency_spike ?(hosts = []) ~at ~heal_at ~add_ms ?(ramp = false) () =
  check_window ~what:"Chaos.Plan.latency_spike" ~at ~heal_at;
  if add_ms < 0.0 then invalid_arg "Chaos.Plan.latency_spike: negative delay";
  Latency { hosts; from_ms = at; until_ms = heal_at; add_ms; ramp }

let corrupt ?(dst_hosts = []) ~at ~heal_at ~probability () =
  check_window ~what:"Chaos.Plan.corrupt" ~at ~heal_at;
  if probability < 0.0 || probability > 1.0 then
    invalid_arg "Chaos.Plan.corrupt: probability out of [0,1]";
  Corrupt { dst_hosts; from_ms = at; until_ms = heal_at; probability }

let torn_write ~host ~at ~probability () =
  if host = "" then invalid_arg "Chaos.Plan.torn_write: empty host";
  if probability < 0.0 || probability > 1.0 then
    invalid_arg "Chaos.Plan.torn_write: probability out of [0,1]";
  Torn_write { host; from_ms = at; until_ms = infinity; probability }

let pp_hosts ppf = function
  | [] -> Format.pp_print_string ppf "*"
  | hosts -> Format.pp_print_string ppf (String.concat "," hosts)

let pp_window ppf (from_ms, until_ms) =
  if until_ms = infinity then Format.fprintf ppf "[%.0f,inf)" from_ms
  else Format.fprintf ppf "[%.0f,%.0f)" from_ms until_ms

let pp_fault ppf = function
  | Crash { host; from_ms; until_ms } ->
      Format.fprintf ppf "crash %s %a" host pp_window (from_ms, until_ms)
  | Partition { group_a; group_b; from_ms; until_ms } ->
      Format.fprintf ppf "partition %a | %a %a" pp_hosts group_a pp_hosts
        group_b pp_window (from_ms, until_ms)
  | Latency { hosts; from_ms; until_ms; add_ms; ramp } ->
      Format.fprintf ppf "latency %a +%.0fms%s %a" pp_hosts hosts add_ms
        (if ramp then " ramp" else "")
        pp_window (from_ms, until_ms)
  | Corrupt { dst_hosts; from_ms; until_ms; probability } ->
      Format.fprintf ppf "corrupt ->%a p=%.2f %a" pp_hosts dst_hosts
        probability pp_window (from_ms, until_ms)
  | Torn_write { host; from_ms; until_ms; probability } ->
      Format.fprintf ppf "torn-write %s p=%.2f %a" host probability pp_window
        (from_ms, until_ms)

let pp ppf t =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
    pp_fault ppf t

let to_string t = Format.asprintf "%a" pp t
