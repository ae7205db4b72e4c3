(* The state is one int64 held unboxed in 8 bytes: a [mutable int64]
   field is a pointer to a box, and every draw would allocate a new
   one. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 seed;
  t

(* Inlined, as is [next], so a draw's int64s stay unboxed inside the
   caller's body. *)
let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

(* One splitmix64 step: advance the state, return its mix. *)
let[@inline] next t =
  let z = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 z;
  mix64 z

let bits64 t = next t

let split t = create ~seed:(mix64 (next t))

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Take the top bits: splitmix64 low bits are fine, but this matches
     the usual rejection-free approximation and is unbiased enough for
     simulation workloads. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  v mod n

let float t x =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  x *. (v /. 9007199254740992.0 (* 2^53 *))

let exponential t ~mean =
  if mean <= 0.0 then invalid_arg "Rng.exponential: mean must be positive";
  let u = float t 1.0 in
  (* Guard against log 0. *)
  let u = if u <= 0.0 then epsilon_float else u in
  -.mean *. log u

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))
