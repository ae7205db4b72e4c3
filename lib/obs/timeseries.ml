(* Two unboxed rings hold the live samples oldest first: [at] the
   observed-at times, [vs] the values; slot [head] is the oldest and
   [len] slots are live. [sorted] indexes the same values in ascending
   [Float.compare] order in its first [len] slots, kept in the order a
   stable sort of the ring would give: a new value goes after its
   equals, an expiring one (the oldest of its equals) comes off the
   front of them. All three arrays share one capacity, which doubles
   up to [max_samples]. *)
type t = {
  window_ms : float;
  max_samples : int;
  mutable at : Float.Array.t;
  mutable vs : Float.Array.t;
  mutable sorted : Float.Array.t;
  mutable head : int;
  mutable len : int;
}

let create ?(max_samples = 8192) ~window_ms () =
  if window_ms <= 0.0 then invalid_arg "Timeseries.create: window must be positive";
  if max_samples <= 0 then invalid_arg "Timeseries.create: max_samples must be positive";
  let empty = Float.Array.create 0 in
  { window_ms; max_samples; at = empty; vs = empty; sorted = empty; head = 0; len = 0 }

let capacity t = Float.Array.length t.vs

(* Ring slot of the [i]-th oldest live sample. *)
let slot t i =
  let j = t.head + i in
  if j >= capacity t then j - capacity t else j

(* First index in [sorted] whose value is not below [v]. *)
let lower_bound t v =
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Float.compare (Float.Array.get t.sorted mid) v < 0 then lo := mid + 1
    else hi := mid
  done;
  !lo

(* First index in [sorted] whose value is above [v]. *)
let upper_bound t v =
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Float.compare (Float.Array.get t.sorted mid) v <= 0 then lo := mid + 1
    else hi := mid
  done;
  !lo

let drop_oldest t =
  let i = lower_bound t (Float.Array.get t.vs t.head) in
  Float.Array.blit t.sorted (i + 1) t.sorted i (t.len - i - 1);
  t.head <- slot t 1;
  t.len <- t.len - 1

(* Drop samples that have slid out of the window ending at [now]. *)
let prune_at t now =
  let horizon = now -. t.window_ms in
  while t.len > 0 && Float.Array.get t.at t.head < horizon do
    drop_oldest t
  done

let prune t = prune_at t (Sim.Engine.time ())

let clear t =
  t.head <- 0;
  t.len <- 0

(* Double the capacity (up to [max_samples]), unwrapping the rings. *)
let grow t =
  let cap = min t.max_samples (max 4 (2 * capacity t)) in
  let at = Float.Array.create cap and vs = Float.Array.create cap in
  for i = 0 to t.len - 1 do
    let j = slot t i in
    Float.Array.set at i (Float.Array.get t.at j);
    Float.Array.set vs i (Float.Array.get t.vs j)
  done;
  let sorted = Float.Array.create cap in
  Float.Array.blit t.sorted 0 sorted 0 t.len;
  t.at <- at;
  t.vs <- vs;
  t.sorted <- sorted;
  t.head <- 0

let observe t v =
  let now = Sim.Engine.time () in
  (* Each engine starts its clock at 0. A clock behind the newest
     sample means a later simulation in the same process, whose
     predecessor's samples would otherwise look too new to expire. *)
  if t.len > 0 && now < Float.Array.get t.at (slot t (t.len - 1)) then clear t;
  prune_at t now;
  if t.len = t.max_samples then drop_oldest t
  else if t.len = capacity t then grow t;
  let j = slot t t.len in
  Float.Array.set t.at j now;
  Float.Array.set t.vs j v;
  let i = upper_bound t v in
  Float.Array.blit t.sorted i t.sorted (i + 1) (t.len - i);
  Float.Array.set t.sorted i v;
  t.len <- t.len + 1

let count t =
  prune t;
  t.len

(* [f] folded over the live values, oldest first. *)
let fold t f init =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc (Float.Array.get t.vs (slot t i))
  done;
  !acc

let values t =
  prune t;
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    acc := Float.Array.get t.vs (slot t i) :: !acc
  done;
  !acc

let percentile t p =
  if p < 0.0 || p > 100.0 then invalid_arg "Timeseries.percentile: p out of range";
  prune t;
  if t.len = 0 then invalid_arg "Timeseries.percentile: no samples in window";
  let sorted = t.sorted and n = t.len in
  let index = p /. 100.0 *. float_of_int (n - 1) in
  let lo_i = int_of_float (floor index) and hi_i = int_of_float (ceil index) in
  if lo_i = hi_i then Float.Array.get sorted lo_i
  else begin
    let frac = index -. float_of_int lo_i in
    let lo = Float.Array.get sorted lo_i in
    lo +. (frac *. (Float.Array.get sorted hi_i -. lo))
  end

type summary = {
  n : int;
  rate_per_s : float;
  mean : float;
  p50 : float;
  p99 : float;
  p999 : float;
  max : float;
}

let summary t =
  prune t;
  match t.len with
  | 0 -> { n = 0; rate_per_s = 0.0; mean = 0.0; p50 = 0.0; p99 = 0.0; p999 = 0.0; max = 0.0 }
  | n ->
      {
        n;
        rate_per_s = float_of_int n /. (t.window_ms /. 1000.0);
        mean = fold t ( +. ) 0.0 /. float_of_int n;
        p50 = percentile t 50.0;
        p99 = percentile t 99.0;
        p999 = percentile t 99.9;
        max = fold t Float.max neg_infinity;
      }
