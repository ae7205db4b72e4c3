(* The repository benchmark: end-to-end metrics on two clocks (wall and
   virtual) over four workloads, per-layer counts and micro-probes, and
   a separate traced run. See README.md for the metrics, the workloads
   and how to run an A/B.

     perf.exe --all [--seed S] [--repeat N] [--trace] [--json OUT]
     perf.exe --workload W [--seed S] [--repeat N] [--trace] [--json OUT]
     perf.exe --workload W --seed S --seconds T --trace 0|1
     perf.exe --smoke

   Every workload measurement runs in a fresh process of this
   executable ([--child]), one at a time. *)

open Child

(* --- children --------------------------------------------------------- *)

type kind = Setup | Run of { probes : bool } | Step of float | Traced

let spawn kind w ~seed ~size =
  let exe = Sys.executable_name in
  let kind_args =
    match kind with
    | Setup -> [ "setup" ]
    | Traced -> [ "traced" ]
    | Step rate -> [ "step"; "--rate"; Printf.sprintf "%g" rate ]
    | Run { probes } -> "run" :: (if probes then [ "--probes" ] else [])
  in
  let args =
    [ exe; "--child" ] @ kind_args
    @ [ "--workload"; Runs.name w; "--seed"; string_of_int seed; "--size"; Runs.size_name size ]
  in
  let ic = Unix.open_process_args_in exe (Array.of_list args) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> Child.of_lines (String.split_on_char '\n' out)
  | _ -> failwith (Printf.sprintf "perf: %s child for %s failed" (List.hd kind_args) (Runs.name w))

let child_main args =
  let rec opt k = function
    | x :: y :: _ when x = k -> Some y
    | _ :: rest -> opt k rest
    | [] -> None
  in
  let need k =
    match opt k args with Some x -> x | None -> failwith ("perf --child: missing " ^ k)
  in
  let w = Option.get (Runs.of_name (need "--workload")) in
  let seed = int_of_string (need "--seed") in
  let size = Option.get (Runs.size_of_name (need "--size")) in
  let r =
    match List.hd args with
    | "setup" -> Child.setup w ~seed
    | "traced" -> Child.traced w ~seed ~size
    | "run" -> Child.run w ~seed ~size ~probes:(List.mem "--probes" args)
    | "step" -> Child.step w ~seed ~size ~rate:(float_of_string (need "--rate"))
    | k -> failwith ("perf --child: unknown kind " ^ k)
  in
  List.iter print_endline (Child.to_lines r)

(* --- aggregation ------------------------------------------------------ *)

type agg = { sample : sample; values : float list }

(* Quartiles as Python's statistics.quantiles(values, n=4) computes them
   (the default exclusive method), so these spreads match the ones
   recomputed from printed values. *)
let quartiles values =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  if n < 2 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let median = Probes.median

let iqr_frac values =
  let q1, _, q3 = quartiles values in
  let m = median values in
  if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m

(* Samples of the same name across results, in first-seen order. *)
let aggregate results =
  let order = ref [] and tbl = Hashtbl.create 64 in
  List.iter
    (fun (r : result) ->
      List.iter
        (fun s ->
          match Hashtbl.find_opt tbl s.name with
          | Some a -> Hashtbl.replace tbl s.name { a with values = s.value :: a.values }
          | None ->
              order := s.name :: !order;
              Hashtbl.replace tbl s.name { sample = s; values = [ s.value ] })
        r.samples)
    results;
  List.rev_map (fun n -> let a = Hashtbl.find tbl n in { a with values = List.rev a.values }) !order

let value a = if a.sample.wall then median a.values else List.hd a.values

(* Virtual metrics are exact for a seed: any difference between
   same-seed repeats is a determinism bug, not noise. *)
let identity_checks aggs =
  List.filter_map
    (fun a ->
      if a.sample.wall || List.for_all (fun x -> x = List.hd a.values) a.values then None
      else
        Some
          ( "virtual metric repeats exactly: " ^ a.sample.name,
            false,
            String.concat " " (List.map (Printf.sprintf "%.17g") a.values) ))
    aggs

(* --- BENCHMARK.json ---------------------------------------------------- *)

type entry = { metric : string; unit_ : string; bound : float option }

(* Read from the working directory, the repository root. *)
let benchmark_json = "BENCHMARK.json"

let load_benchmark () =
  let j = Obs.Json.of_string (In_channel.with_open_bin benchmark_json In_channel.input_all) in
  let entries key =
    List.map
      (fun e ->
        {
          metric = Obs.Json.to_str (Obs.Json.get "name" e);
          unit_ = Obs.Json.to_str (Obs.Json.get "unit" e);
          bound = Option.map Obs.Json.to_float (Obs.Json.member "bound" e);
        })
      (Obs.Json.to_list (Obs.Json.get key j))
  in
  (entries "end_to_end", entries "per_layer")

(* setup_s is a few milliseconds for some workloads: its spread check
   has an absolute floor, as a regression of less than this is noise. *)
let setup_floor_s = 0.02

let spread_checks bench aggs =
  List.filter_map
    (fun a ->
      match List.find_opt (fun e -> e.metric = a.sample.name) bench with
      | Some { bound = Some b; _ } when a.sample.wall && List.length a.values > 1 ->
          let q1, _, q3 = quartiles a.values in
          let m = median a.values in
          let allowed =
            if a.sample.name = "setup_s" then Float.max (b *. m) setup_floor_s else b *. m
          in
          Some
            ( "wall spread within bound: " ^ a.sample.name,
              q3 -. q1 <= allowed,
              Printf.sprintf "IQR %.4g vs allowed %.4g (median %.4g)" (q3 -. q1) allowed m )
      | _ -> None)
    aggs

(* --- measuring one workload ------------------------------------------- *)

(* Set-ups are a few milliseconds each, so a burst of machine noise
   can swamp all of them at once: they run in groups of this many,
   before the first full run and after every one. *)
let setups_per_group = 5

type measured = {
  aggs : agg list;
  checks : (string * bool * string) list;
  attempted : int;
  failed : int;
}

(* Checks of every result, each distinct one once, in order. *)
let measured results =
  let aggs = aggregate results in
  let first = List.hd results in
  let checks =
    List.fold_left
      (fun acc c -> if List.mem c acc then acc else c :: acc)
      [] (List.concat_map (fun (r : result) -> r.checks) results)
  in
  {
    aggs;
    checks = List.rev checks @ identity_checks aggs;
    attempted = first.attempted;
    failed = first.failed;
  }

(* Fresh full runs: [`Runs n] of them, or [`Seconds s] as many as fit
   in [s] wall seconds (at least one). *)
let runs ?(after = ignore) w ~seed ~size ~probes budget =
  let run () =
    let r = spawn (Run { probes }) w ~seed ~size in
    after ();
    r
  in
  match budget with
  | `Runs n -> List.init n (fun _ -> run ())
  | `Seconds s ->
      let t0 = Unix.gettimeofday () in
      let rec more acc =
        let t = Unix.gettimeofday () in
        let r = run () in
        let last = Unix.gettimeofday () -. t in
        if Unix.gettimeofday () -. t0 +. last > s then List.rev (r :: acc) else more (r :: acc)
      in
      more []

(* Full runs, with groups of set-ups spread between them. *)
let end_to_end w ~seed ~size ~probes budget =
  let setups = ref [] in
  let group () =
    setups := !setups @ List.init setups_per_group (fun _ -> spawn Setup w ~seed ~size:Runs.Setup)
  in
  group ();
  let m = measured (runs ~after:group w ~seed ~size ~probes budget) in
  { m with aggs = aggregate !setups @ m.aggs }

(* The rate ladder, one fresh process per step, climbing until the first
   step that fails. Virtual, so it runs once however many repeats. *)
let capacity w ~seed ~size =
  let rec climb best acc = function
    | [] -> (best, acc)
    | rate :: rest ->
        let r = spawn (Step rate) w ~seed ~size in
        let get suffix =
          (List.find (fun s -> s.name = Child.step_name rate ^ suffix) r.samples).value
        in
        let acc = acc @ r.samples in
        if Runs.step_passes ~p99_ms:(get "p99_ms") ~failed_frac:(get "failed_frac") then
          climb rate acc rest
        else (best, acc)
  in
  match Runs.ladder_steps w size with
  | [] -> []
  | steps ->
      let best, samples = climb 0.0 [] steps in
      aggregate
        [
          {
            samples = v "capacity_rps" "req/s" best :: samples;
            checks = [];
            attempted = 0;
            failed = 0;
          };
        ]

let with_capacity w ~seed ~size m = { m with aggs = m.aggs @ capacity w ~seed ~size }

(* The traced run, and an untraced run of the same window in its own
   process: the two differ only by tracing. *)
let traced_pass w ~seed ~size =
  let traced = spawn Traced w ~seed ~size in
  let plain = spawn (Run { probes = false }) w ~seed ~size in
  let get (r : result) n = (List.find (fun s -> s.name = n) r.samples).value in
  let derived =
    [
      v ~wall:true "trace.ops_per_s_ratio" "ratio"
        (get traced "ops_per_s" /. get plain "ops_per_s");
      v "trace.lat_p50_shift_ms" "ms" (get traced "lat_p50_ms" -. get plain "lat_p50_ms");
    ]
  in
  let keep s = s.name <> "ops_per_s" && s.name <> "lat_p50_ms" in
  let traced = { traced with samples = List.filter keep traced.samples @ derived } in
  let m = measured [ traced ] in
  { m with checks = m.checks @ plain.checks }

(* --- output ------------------------------------------------------------ *)

let pp_value x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.abs x >= 100.0 then Printf.sprintf "%.2f" x
  else Printf.sprintf "%.4g" x

let print_table title m =
  Printf.printf "\n== %s ==\n" title;
  List.iter
    (fun a ->
      let spread =
        if List.length a.values > 1 then
          Printf.sprintf "  n=%d IQR/median %.3f" (List.length a.values) (iqr_frac a.values)
        else ""
      in
      Printf.printf "  %-40s %14s %-14s %s%s\n" a.sample.name (pp_value (value a)) a.sample.unit_
        (if a.sample.wall then "wall" else "virtual")
        spread)
    m.aggs;
  List.iter
    (fun (n, ok, detail) ->
      Printf.printf "  check %-4s %s%s\n" (if ok then "ok" else "FAIL") n
        (if detail = "" then "" else " (" ^ detail ^ ")"))
    m.checks

let all_ok m = List.for_all (fun (_, ok, _) -> ok) m.checks

(* One metric as a JSON member, written by hand rather than with
   Obs.Json, whose numbers keep 12 digits: every value goes out with all
   17, so it reproduces the exact virtual values the checks compare.
   Names and units are plain identifiers, so nothing needs escaping. *)
let metric_json ?(fields = []) name unit_ value =
  let extra = List.map (fun (k, x) -> Printf.sprintf ",%S:%.17g" k x) fields in
  Printf.sprintf "%S:{\"value\":%.17g,\"unit\":%S%s}" name value unit_ (String.concat "" extra)

let agg_json a =
  let fields = if List.length a.values > 1 then [ ("iqr_frac", iqr_frac a.values) ] else [] in
  metric_json ~fields a.sample.name a.sample.unit_ (value a)

(* --- modes ------------------------------------------------------------- *)

type opts = {
  workloads : Runs.workload list;
  seed : int;
  repeat : int;
  trace : bool;
  seconds : float option;
  json : string option;
  smoke : bool;
}

(* A timed run (--seconds): one JSON line, the last on stdout, holding
   exactly the BENCHMARK.json metrics of the requested kind. *)
let timed_run o w ~seconds =
  let e2e, per_layer = load_benchmark () in
  let m, wanted =
    if o.trace then
      let run = measured (runs w ~seed:o.seed ~size:Runs.Full ~probes:true (`Seconds seconds)) in
      let tr = traced_pass w ~seed:o.seed ~size:Runs.Traced in
      ({ run with aggs = run.aggs @ tr.aggs; checks = run.checks @ tr.checks }, per_layer)
    else (end_to_end w ~seed:o.seed ~size:Runs.Full ~probes:false (`Seconds seconds), e2e)
  in
  List.iter
    (fun (n, ok, d) -> if not ok then Printf.eprintf "perf: check failed: %s %s\n" n d)
    m.checks;
  let metrics =
    List.map
      (fun e ->
        match List.find_opt (fun a -> a.sample.name = e.metric) m.aggs with
        | Some a -> metric_json e.metric e.unit_ (value a)
        | None -> failwith ("perf: metric not emitted: " ^ e.metric))
      wanted
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n" (all_ok m)
    (max 1 m.attempted) m.failed (String.concat "," metrics)

(* Every workload at a few-second virtual window with one ladder step:
   every BENCHMARK.json metric must be emitted with its unit and every
   check must pass. *)
let smoke o =
  let e2e, per_layer = load_benchmark () in
  let failures = ref [] in
  List.iter
    (fun w ->
      let seed = o.seed in
      let base =
        with_capacity w ~seed ~size:Runs.Smoke
          (end_to_end w ~seed ~size:Runs.Smoke ~probes:true (`Runs 1))
      in
      let tr = traced_pass w ~seed ~size:Runs.Smoke in
      let aggs = base.aggs @ tr.aggs in
      List.iter
        (fun e ->
          match List.find_opt (fun a -> a.sample.name = e.metric) aggs with
          | None ->
              failures := Printf.sprintf "%s: %s not emitted" (Runs.name w) e.metric :: !failures
          | Some a when a.sample.unit_ <> e.unit_ ->
              failures :=
                Printf.sprintf "%s: %s unit %s, BENCHMARK.json says %s" (Runs.name w) e.metric
                  a.sample.unit_ e.unit_
                :: !failures
          | Some _ -> ())
        (e2e @ per_layer);
      List.iter
        (fun (n, ok, d) ->
          if not ok then failures := Printf.sprintf "%s: %s %s" (Runs.name w) n d :: !failures)
        (base.checks @ tr.checks))
    o.workloads;
  match List.rev !failures with
  | [] ->
      Printf.printf "perf smoke: %d workloads, every BENCHMARK.json metric emitted, checks pass\n"
        (List.length o.workloads)
  | fs ->
      List.iter prerr_endline fs;
      exit 1

let human o =
  let e2e, _ = load_benchmark () in
  let results =
    List.map
      (fun w ->
        let seed = o.seed in
        let m =
          if o.trace then traced_pass w ~seed ~size:Runs.Traced
          else
            let m =
              with_capacity w ~seed ~size:Runs.Full
                (end_to_end w ~seed ~size:Runs.Full ~probes:true (`Runs o.repeat))
            in
            { m with checks = m.checks @ spread_checks e2e m.aggs }
        in
        let traced = if o.trace then ", traced" else "" in
        print_table (Printf.sprintf "%s, seed %d%s" (Runs.name w) seed traced) m;
        (w, m))
      o.workloads
  in
  Option.iter
    (fun path ->
      let workload (w, m) =
        Printf.sprintf "%S:{\"metrics\":{%s},\"correct\":%b}" (Runs.name w)
          (String.concat "," (List.map agg_json m.aggs))
          (all_ok m)
      in
      Out_channel.with_open_bin path (fun oc ->
          Printf.fprintf oc "{\"seed\":%d,\"workloads\":{%s}}\n" o.seed
            (String.concat "," (List.map workload results))))
    o.json;
  if not (List.for_all (fun (_, m) -> all_ok m) results) then begin
    prerr_endline "perf: some checks failed";
    exit 1
  end

let usage () =
  prerr_endline
    "usage: perf.exe (--all | --workload W) [--seed S] [--repeat N] [--trace [0|1]] [--seconds T] \
     [--json OUT]\n\
    \       perf.exe --smoke\n\
     workloads: warm-fleet cold-legacy meta-writes load-suite";
  exit 2

let parse args =
  let rec go o = function
    | [] -> o
    | "--all" :: rest -> go { o with workloads = Runs.all } rest
    | "--smoke" :: rest -> go { o with smoke = true; workloads = Runs.all } rest
    | "--workload" :: w :: rest -> (
        match Runs.of_name w with Some w -> go { o with workloads = [ w ] } rest | None -> usage ())
    | "--seed" :: s :: rest -> go { o with seed = int_of_string s } rest
    | "--repeat" :: n :: rest -> go { o with repeat = max 1 (int_of_string n) } rest
    | "--seconds" :: s :: rest -> go { o with seconds = Some (float_of_string s) } rest
    | "--trace" :: ("0" | "1" as t) :: rest -> go { o with trace = t = "1" } rest
    | "--trace" :: rest -> go { o with trace = true } rest
    | "--json" :: p :: rest -> go { o with json = Some p } rest
    | _ -> usage ()
  in
  go
    {
      workloads = [];
      seed = 42;
      repeat = 1;
      trace = false;
      seconds = None;
      json = None;
      smoke = false;
    }
    args

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "--child" :: rest -> child_main rest
  | args -> (
      let o = parse args in
      if not (Sys.file_exists benchmark_json) then begin
        Printf.eprintf "perf: %s not found; run from the repository root\n" benchmark_json;
        exit 2
      end;
      match (o.smoke, o.seconds, o.workloads) with
      | true, _, _ -> smoke o
      | false, Some seconds, [ w ] -> timed_run o w ~seconds
      | false, None, _ :: _ -> human o
      | _ -> usage ())
