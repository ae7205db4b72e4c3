type strategy =
  | Sliding_count of { window_ms : float }
  | Decayed of { half_life_ms : float }

module Names = Hashtbl.Make (Name)

(* One group's entries as dense parallel arrays. Slot [i < len] holds a
   name, its score (window count for Sliding, decayed mass for Decayed),
   the instant of its most recent sighting and the freshness horizon
   from that sighting's rrset; [slot] maps each name to its index.
   The arrays start at 16 slots and double up to the capacity. Removal
   moves the last slot into the freed one, so slot order is arbitrary:
   every result is ordered by [ranks_before] alone. *)
type group = {
  slot : int Names.t;
  mutable names : Name.t array;
  mutable score : Float.Array.t;
  mutable last_ms : Float.Array.t;
  mutable ttl_ms : Float.Array.t;
  mutable len : int;
}

type t = {
  strategy : strategy;
  default_ttl_ms : float;
  capacity : int;
  groups : (string, group) Hashtbl.t;
}

let create ?(default_ttl_ms = 3_600_000.0) ?(capacity = 4096) ~strategy () =
  if capacity <= 0 then invalid_arg "Hotrank.create: capacity must be positive";
  (match strategy with
  | Sliding_count { window_ms } when window_ms <= 0.0 ->
      invalid_arg "Hotrank.create: window_ms must be positive"
  | Decayed { half_life_ms } when half_life_ms <= 0.0 ->
      invalid_arg "Hotrank.create: half_life_ms must be positive"
  | _ -> ());
  { strategy; default_ttl_ms; capacity; groups = Hashtbl.create 4 }

let group_table t group =
  match Hashtbl.find_opt t.groups group with
  | Some g -> g
  | None ->
      let n = min 16 t.capacity in
      let g =
        {
          slot = Names.create 64;
          names = Array.make n Name.root;
          score = Float.Array.create n;
          last_ms = Float.Array.create n;
          ttl_ms = Float.Array.create n;
          len = 0;
        }
      in
      Hashtbl.replace t.groups group g;
      g

(* Double the slot arrays, never past [capacity]. *)
let grow g ~capacity =
  let n = min capacity (2 * Array.length g.names) in
  let names = Array.make n Name.root in
  Array.blit g.names 0 names 0 g.len;
  g.names <- names;
  let widen a =
    let b = Float.Array.create n in
    Float.Array.blit a 0 b 0 g.len;
    b
  in
  g.score <- widen g.score;
  g.last_ms <- widen g.last_ms;
  g.ttl_ms <- widen g.ttl_ms

let remove g i =
  Names.remove g.slot g.names.(i);
  let last = g.len - 1 in
  if i < last then begin
    let moved = g.names.(last) in
    g.names.(i) <- moved;
    Float.Array.set g.score i (Float.Array.get g.score last);
    Float.Array.set g.last_ms i (Float.Array.get g.last_ms last);
    Float.Array.set g.ttl_ms i (Float.Array.get g.ttl_ms last);
    Names.replace g.slot moved i
  end;
  g.names.(last) <- Name.root (* keep no removed name reachable *);
  g.len <- last

let[@inline] expired g i ~now_ms =
  now_ms -. Float.Array.get g.last_ms i > Float.Array.get g.ttl_ms i

(* The score a ranking pass sees for slot [i] at [now_ms]: the sliding
   count is taken at face value inside its window; the decayed mass is
   brought forward from the last sighting. An entry past its window or
   its TTL scores [-1.0], below every live score. Inlined, so the
   ranking loops never box it. *)
let[@inline] live_score t g i ~now_ms =
  if expired g i ~now_ms then -1.0
  else
    let age = now_ms -. Float.Array.get g.last_ms i in
    match t.strategy with
    | Sliding_count { window_ms } ->
        if age > window_ms then -1.0 else Float.Array.get g.score i
    | Decayed { half_life_ms } ->
        Float.Array.get g.score i *. Float.exp2 (-.age /. half_life_ms)

(* The ranking order: score descending, then Name.compare. It is a
   strict total order on distinct names. *)
let[@inline] ranks_before (s1 : float) n1 (s2 : float) n2 =
  s1 > s2 || (s1 = s2 && Name.compare n1 n2 < 0)

(* Deterministic eviction when a group's table is full: drop the entry
   that ranks last, a dead one before any live one. *)
let evict_one t g ~now_ms =
  let victim = ref 0 and victim_s = ref (live_score t g 0 ~now_ms) in
  for i = 1 to g.len - 1 do
    let s = live_score t g i ~now_ms in
    if ranks_before !victim_s g.names.(!victim) s g.names.(i) then begin
      victim := i;
      victim_s := s
    end
  done;
  remove g !victim

let note t ~group ~now_ms ?ttl_ms name =
  let ttl_ms = Option.value ~default:t.default_ttl_ms ttl_ms in
  let g = group_table t group in
  match Names.find g.slot name with
  | i ->
      let s = Float.Array.get g.score i
      and age = now_ms -. Float.Array.get g.last_ms i in
      let s =
        match t.strategy with
        | Sliding_count { window_ms } ->
            (if age > window_ms then 0.0 else s) +. 1.0
        | Decayed { half_life_ms } ->
            (s *. Float.exp2 (-.age /. half_life_ms)) +. 1.0
      in
      Float.Array.set g.score i s;
      Float.Array.set g.last_ms i now_ms;
      Float.Array.set g.ttl_ms i ttl_ms
  | exception Not_found ->
      if g.len >= t.capacity then evict_one t g ~now_ms;
      if g.len = Array.length g.names then grow g ~capacity:t.capacity;
      let i = g.len in
      g.names.(i) <- name;
      Float.Array.set g.score i 1.0;
      Float.Array.set g.last_ms i now_ms;
      Float.Array.set g.ttl_ms i ttl_ms;
      Names.add g.slot name i;
      g.len <- i + 1

let score t ~group ~now_ms name =
  match Hashtbl.find_opt t.groups group with
  | None -> None
  | Some g -> (
      match Names.find_opt g.slot name with
      | None -> None
      | Some i ->
          let s = live_score t g i ~now_ms in
          if s >= 0.0 then Some s else None)

(* Bounded selection: the best [k] (score, name) pairs offered so far,
   best first. *)
type best = {
  b_names : Name.t array;
  b_scores : Float.Array.t;
  mutable b_len : int;
}

let best k =
  let k = max 0 k in
  { b_names = Array.make k Name.root; b_scores = Float.Array.create k; b_len = 0 }

(* Offer a pair to [b]. It enters only if it beats the current k-th,
   which a full buffer then drops. Inlined, so the selection never
   boxes a score. *)
let[@inline] offer b s name =
  let k = Array.length b.b_names in
  if
    b.b_len < k
    || k > 0
       && ranks_before s name (Float.Array.get b.b_scores (k - 1)) b.b_names.(k - 1)
  then begin
    let j = ref (min b.b_len (k - 1)) in
    while
      !j > 0
      && ranks_before s name (Float.Array.get b.b_scores (!j - 1)) b.b_names.(!j - 1)
    do
      b.b_names.(!j) <- b.b_names.(!j - 1);
      Float.Array.set b.b_scores !j (Float.Array.get b.b_scores (!j - 1));
      decr j
    done;
    b.b_names.(!j) <- name;
    Float.Array.set b.b_scores !j s;
    if b.b_len < k then b.b_len <- b.b_len + 1
  end

let ranked b = List.init b.b_len (fun i -> (b.b_names.(i), Float.Array.get b.b_scores i))

let top t ~group ~now_ms ~k =
  match Hashtbl.find_opt t.groups group with
  | None -> []
  | Some g ->
      let b = best (min k g.len) in
      let i = ref 0 in
      while !i < g.len do
        (* Opportunistic GC: TTL-expired entries are dead weight and
           would only distort capacity eviction; collect them here. The
           last slot moves into [i], which is then looked at again. *)
        if expired g !i ~now_ms then remove g !i
        else begin
          let s = live_score t g !i ~now_ms and name = g.names.(!i) in
          if s >= 0.0 then offer b s name;
          incr i
        end
      done;
      ranked b

let top_merged t ~now_ms ~k =
  let merged = Names.create 64 in
  Hashtbl.iter
    (fun _group g ->
      for i = 0 to g.len - 1 do
        let s = live_score t g i ~now_ms in
        if s >= 0.0 then
          match Names.find merged g.names.(i) with
          | s' when s' >= s -> ()
          | _ | (exception Not_found) -> Names.replace merged g.names.(i) s
      done)
    t.groups;
  let b = best (min k (Names.length merged)) in
  Names.iter (fun name s -> offer b s name) merged;
  ranked b

let groups t =
  List.sort String.compare (Hashtbl.fold (fun g _ acc -> g :: acc) t.groups [])

let clear t = Hashtbl.reset t.groups
