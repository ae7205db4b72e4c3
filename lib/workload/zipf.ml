type t = { n_ : int; s_ : float; cdf : float array }

let create ~n ~s =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  if s < 0.0 then invalid_arg "Zipf.create: s must be nonnegative";
  let weights = Array.init n (fun k -> 1.0 /. Float.pow (float_of_int (k + 1)) s) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
      acc := !acc +. (w /. total);
      cdf.(i) <- !acc)
    weights;
  cdf.(n - 1) <- 1.0;
  { n_ = n; s_ = s; cdf }

let sample t rng =
  let u = Sim.Rng.float rng 1.0 in
  (* Binary search for the first index with cdf >= u. *)
  let rec search lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if t.cdf.(mid) >= u then search lo mid else search (mid + 1) hi
    end
  in
  search 0 (t.n_ - 1)

let pmf t k =
  if k < 0 || k >= t.n_ then invalid_arg "Zipf.pmf: rank out of range";
  if k = 0 then t.cdf.(0) else t.cdf.(k) -. t.cdf.(k - 1)
