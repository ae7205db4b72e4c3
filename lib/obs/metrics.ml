(* A global counter has no [rollup]; an owner counter rolls every
   increment up into the global it was derived from (one level: owners
   always roll up into a global). *)
type counter = { c_name : string; mutable count : int; rollup : counter option }
type gauge = { mutable level : float }
type histogram = { stats_ : Sim.Stats.t }

type metric =
  | M_counter of counter
  | M_gauge of gauge
  | M_histogram of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

let kind_name = function
  | M_counter _ -> "counter"
  | M_gauge _ -> "gauge"
  | M_histogram _ -> "histogram"

let validate_name name =
  let ok_char c =
    match c with 'a' .. 'z' | '0' .. '9' | '.' | '_' | '-' -> true | _ -> false
  in
  if name = "" || not (String.for_all ok_char name) then
    invalid_arg
      (Printf.sprintf
         "Obs.Metrics: %S is not a layer.component.metric name (lowercase, digits, \
          '.', '_', '-')"
         name)

let register name ~make ~cast ~want =
  match Hashtbl.find_opt registry name with
  | Some m -> (
      match cast m with
      | Some v -> v
      | None ->
          invalid_arg
            (Printf.sprintf "Obs.Metrics: %S is registered as a %s, wanted a %s" name
               (kind_name m) want))
  | None ->
      validate_name name;
      make ()

let counter name =
  register name ~want:"counter"
    ~cast:(function M_counter c -> Some c | _ -> None)
    ~make:(fun () ->
      let c = { c_name = name; count = 0; rollup = None } in
      Hashtbl.replace registry name (M_counter c);
      c)

let add c n =
  c.count <- c.count + n;
  match c.rollup with None -> () | Some g -> g.count <- g.count + n

let incr c = add c 1
let value c = c.count
let zero c = c.count <- 0

(* Owner counters are never entered in [registry]: the snapshot and
   [reset] see globals alone. *)
let owned g =
  let g = Option.value g.rollup ~default:g in
  { c_name = g.c_name; count = 0; rollup = Some g }

type scope = counter list

let scope counters = counters

let read s name =
  match List.find_opt (fun c -> c.c_name = name) s with
  | Some c -> c.count
  | None -> invalid_arg (Printf.sprintf "Obs.Metrics.read: %S is not in this scope" name)

let gauge name =
  register name ~want:"gauge"
    ~cast:(function M_gauge g -> Some g | _ -> None)
    ~make:(fun () ->
      let g = { level = 0.0 } in
      Hashtbl.replace registry name (M_gauge g);
      g)

let set g x = g.level <- x
let get g = g.level

let histogram name =
  register name ~want:"histogram"
    ~cast:(function M_histogram h -> Some h | _ -> None)
    ~make:(fun () ->
      let h = { stats_ = Sim.Stats.create ~name () } in
      Hashtbl.replace registry name (M_histogram h);
      h)

let observe h x = Sim.Stats.add h.stats_ x

let time h f =
  let t0 = Sim.Engine.time () in
  let finally () = observe h (Sim.Engine.time () -. t0) in
  Fun.protect ~finally f

type sample =
  | Count of int
  | Level of float
  | Summary of {
      n : int;
      total : float;
      mean : float;
      p50 : float;
      p95 : float;
      p99 : float;
      p999 : float;
      min : float;
      max : float;
    }

let sample_of = function
  | M_counter c -> Count c.count
  | M_gauge g -> Level g.level
  | M_histogram h ->
      let s = h.stats_ in
      let n = Sim.Stats.count s in
      if n = 0 then
        Summary
          {
            n = 0;
            total = 0.0;
            mean = 0.0;
            p50 = 0.0;
            p95 = 0.0;
            p99 = 0.0;
            p999 = 0.0;
            min = 0.0;
            max = 0.0;
          }
      else
        Summary
          {
            n;
            total = Sim.Stats.total s;
            mean = Sim.Stats.mean s;
            p50 = Sim.Stats.median s;
            p95 = Sim.Stats.percentile s 95.0;
            p99 = Sim.Stats.percentile s 99.0;
            p999 = Sim.Stats.percentile s 99.9;
            min = Sim.Stats.min_value s;
            max = Sim.Stats.max_value s;
          }

let snapshot () =
  Hashtbl.fold (fun name m acc -> (name, sample_of m) :: acc) registry []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find name = Option.map sample_of (Hashtbl.find_opt registry name)

(* The charset is enforced at registration; structure is linted after
   the fact so a run can register freely and `make obs` still catches a
   two-segment name like "hrpc.backoff_ms" sneaking in. *)
let lint () =
  let structure name =
    let segments = String.split_on_char '.' name in
    if List.length segments < 3 then
      Some
        (Printf.sprintf "%S has %d dot-separated segments, want layer.component.metric"
           name (List.length segments))
    else if List.exists (fun s -> s = "") segments then
      Some (Printf.sprintf "%S has an empty segment" name)
    else None
  in
  Hashtbl.fold (fun name _ acc -> acc @ Option.to_list (structure name)) registry []
  |> List.sort String.compare

let reset () =
  Hashtbl.iter
    (fun _ m ->
      match m with
      | M_counter c -> c.count <- 0
      | M_gauge g -> g.level <- 0.0
      | M_histogram h -> Sim.Stats.clear h.stats_)
    registry
