(* A global counter has no [rollup]; an owner counter rolls every
   increment up into the counter it was derived from, and on up the
   chain to a global. *)
type counter = { c_name : string; mutable count : int; rollup : counter option }
type gauge = { mutable level : float }

(* A registry histogram keeps n, total, min and max exactly, and its
   samples only as counts in log-spaced buckets, so its memory is fixed
   whatever the run length. The buckets cover 2^-30 to 2^34 ms: 64
   octaves of 64 buckets each. A positive float's bucket is its
   exponent and the top six bits of its mantissa, that is, its bits
   shifted right by 46. A bucket is at most 1/64 of its lower edge
   wide, so its midpoint is within 1/128 (0.78%) of any sample in it.
   A sample below the range counts in the first bucket, one above it in
   the last, and every sample <= 0 in one zero bucket. *)
let sub_bits = 6
let n_buckets = 64 lsl sub_bits
let bits_shift = 52 - sub_bits

(* The key of 2^-30: its biased exponent, 1023 - 30, above six zero
   mantissa bits. *)
let first_key = (1023 - 30) lsl sub_bits

(* An all-float record is stored flat, so updating it boxes nothing. *)
type moments = { mutable total : float; mutable lo : float; mutable hi : float }

let empty_moments () = { total = 0.0; lo = infinity; hi = neg_infinity }

type histogram = {
  mutable moments : moments;
  mutable n : int;
  mutable zeros : int;
  mutable counts : int array;  (* [||] until the first positive sample *)
}

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

let rec add c n =
  c.count <- c.count + n;
  match c.rollup with None -> () | Some g -> add g n

let incr c = add c 1
let value c = c.count
let zero c = c.count <- 0

(* Owner counters are never entered in [registry]: the snapshot and
   [reset] see globals alone. *)
let owned g = { c_name = g.c_name; count = 0; rollup = Some g }

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
      let h = { moments = empty_moments (); n = 0; zeros = 0; counts = [||] } in
      Hashtbl.replace registry name (M_histogram h);
      h)

let bucket x =
  let key = Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float x) bits_shift) in
  let i = key - first_key in
  if i < 0 then 0 else if i >= n_buckets then n_buckets - 1 else i

let observe h x =
  let m = h.moments in
  h.n <- h.n + 1;
  m.total <- m.total +. x;
  if x < m.lo then m.lo <- x;
  if x > m.hi then m.hi <- x;
  if x <= 0.0 then h.zeros <- h.zeros + 1
  else begin
    if Array.length h.counts = 0 then h.counts <- Array.make n_buckets 0;
    let i = bucket x in
    h.counts.(i) <- h.counts.(i) + 1
  end

let time h f =
  let t0 = Sim.Engine.time () in
  match f () with
  | v ->
      observe h (Sim.Engine.time () -. t0);
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      observe h (Sim.Engine.time () -. t0);
      Printexc.raise_with_backtrace e bt

let bucket_mid i =
  let edge i =
    Int64.float_of_bits (Int64.shift_left (Int64.of_int (i + first_key)) bits_shift)
  in
  (edge i +. edge (i + 1)) /. 2.0

(* The [k]th smallest sample, from 0, read as its bucket's midpoint
   (0. for the zero bucket) clamped to [min, max]. *)
let order_stat h k =
  let v =
    if k < h.zeros then 0.0
    else begin
      let i = ref 0 and seen = ref (h.zeros + h.counts.(0)) in
      while !seen <= k do
        i := !i + 1;
        seen := !seen + h.counts.(!i)
      done;
      bucket_mid !i
    end
  in
  let m = h.moments in
  if v < m.lo then m.lo else if v > m.hi then m.hi else v

(* [Sim.Stats.percentile]'s rank rule over the order statistics. *)
let percentile h p =
  let rank = p /. 100.0 *. float_of_int (h.n - 1) in
  let lo_i = int_of_float (floor rank) and hi_i = int_of_float (ceil rank) in
  let lo = order_stat h lo_i in
  if lo_i = hi_i then lo
  else lo +. ((rank -. float_of_int lo_i) *. (order_stat h hi_i -. lo))

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
  | M_histogram ({ n; moments = m; _ } as h) ->
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
            total = m.total;
            mean = m.total /. float_of_int n;
            p50 = percentile h 50.0;
            p95 = percentile h 95.0;
            p99 = percentile h 99.0;
            p999 = percentile h 99.9;
            min = m.lo;
            max = m.hi;
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
      | M_histogram h ->
          h.moments <- empty_moments ();
          h.n <- 0;
          h.zeros <- 0;
          Array.fill h.counts 0 (Array.length h.counts) 0)
    registry
