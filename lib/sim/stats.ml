(* Samples live unboxed in the first [n] slots of [xs], in insertion
   order; the array doubles when full. [sorted] caches an ascending
   copy for percentile reads: the first read after an [add] makes it,
   and later reads share it. *)
type t = {
  stat_name : string;
  mutable xs : Float.Array.t;
  mutable n : int;
  mutable sorted : Float.Array.t option;
  mutable sum : float;
  mutable sumsq : float;
  mutable lo : float;
  mutable hi : float;
}

let create ?(name = "") () =
  {
    stat_name = name;
    xs = Float.Array.create 0;
    n = 0;
    sorted = None;
    sum = 0.0;
    sumsq = 0.0;
    lo = infinity;
    hi = neg_infinity;
  }

let add t x =
  if t.n = Float.Array.length t.xs then begin
    let xs = Float.Array.create (max 8 (2 * t.n)) in
    Float.Array.blit t.xs 0 xs 0 t.n;
    t.xs <- xs
  end;
  Float.Array.set t.xs t.n x;
  t.n <- t.n + 1;
  t.sorted <- None;
  t.sum <- t.sum +. x;
  t.sumsq <- t.sumsq +. (x *. x);
  if x < t.lo then t.lo <- x;
  if x > t.hi then t.hi <- x

let count t = t.n
let total t = t.sum
let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n

let stddev t =
  if t.n < 2 then 0.0
  else begin
    let m = mean t in
    let var = (t.sumsq /. float_of_int t.n) -. (m *. m) in
    sqrt (Float.max 0.0 var)
  end

let min_value t = t.lo
let max_value t = t.hi

let samples t =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    acc := Float.Array.get t.xs i :: !acc
  done;
  !acc

(* A stable sort of the samples newest first, so that samples which
   compare equal but differ in bits (0. and -0.) come out in the order
   the list sort this replaced gave them. *)
let sorted t =
  match t.sorted with
  | Some s -> s
  | None ->
      let s = Float.Array.init t.n (fun i -> Float.Array.get t.xs (t.n - 1 - i)) in
      Float.Array.stable_sort Float.compare s;
      t.sorted <- Some s;
      s

let percentile t p =
  if t.n = 0 then invalid_arg "Stats.percentile: no samples";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = sorted t in
  let rank = p /. 100.0 *. float_of_int (t.n - 1) in
  let lo_i = int_of_float (floor rank) and hi_i = int_of_float (ceil rank) in
  if lo_i = hi_i then Float.Array.get sorted lo_i
  else begin
    let frac = rank -. float_of_int lo_i in
    let lo = Float.Array.get sorted lo_i in
    lo +. (frac *. (Float.Array.get sorted hi_i -. lo))
  end

let median t = percentile t 50.0

let pp ppf t =
  if t.n = 0 then Format.fprintf ppf "%s: (no samples)" t.stat_name
  else
    Format.fprintf ppf "%s: n=%d mean=%.2f sd=%.2f min=%.2f p50=%.2f p95=%.2f max=%.2f"
      t.stat_name t.n (mean t) (stddev t) t.lo (median t) (percentile t 95.0) t.hi

module Histogram = struct
  type h = {
    lo : float;
    hi : float;
    width : float;
    bins : int array;
    mutable under : int;
    mutable over : int;
  }

  let create ~lo ~hi ~bins =
    if bins <= 0 then invalid_arg "Histogram.create: bins must be positive";
    if hi <= lo then invalid_arg "Histogram.create: empty range";
    { lo; hi; width = (hi -. lo) /. float_of_int bins; bins = Array.make bins 0; under = 0; over = 0 }

  let add h x =
    if x < h.lo then h.under <- h.under + 1
    else if x >= h.hi then h.over <- h.over + 1
    else begin
      let i = int_of_float ((x -. h.lo) /. h.width) in
      let i = min i (Array.length h.bins - 1) in
      h.bins.(i) <- h.bins.(i) + 1
    end

  let counts h = Array.copy h.bins
  let underflow h = h.under
  let overflow h = h.over
  let total h = h.under + h.over + Array.fold_left ( + ) 0 h.bins

  let pp ppf h =
    let peak = Array.fold_left max 1 h.bins in
    Array.iteri
      (fun i c ->
        let b_lo = h.lo +. (float_of_int i *. h.width) in
        let bar = String.make (c * 40 / peak) '#' in
        Format.fprintf ppf "%10.2f..%-10.2f %6d %s@." b_lo (b_lo +. h.width) c bar)
      h.bins;
    if h.under > 0 then Format.fprintf ppf "underflow: %d@." h.under;
    if h.over > 0 then Format.fprintf ppf "overflow: %d@." h.over
end
