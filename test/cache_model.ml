(* Reference model of the HNS cache: Hns.Cache's rules written out over
   an association list, so properties can hold the production cache to
   them. An entry has a stored form, an expiry, a pin and a recency.
   Every charge the cache makes is made here too, in the same order and
   amounts, against the model's own clock, so the virtual time the two
   spend can be compared bit for bit. *)

type mode = Hns.Cache.mode = Marshalled | Demarshalled

type form =
  | Bytes of Wire.Value.t  (* marshalled: demarshalled again on every hit *)
  | Value of Wire.Value.t
  | Addr of int32
  | Negative

type entry = { form : form; expires_at : float; pinned : bool; recency : int }

type counts = {
  mutable hits : int;
  mutable misses : int;
  mutable stale_served : int;
  mutable neg_hits : int;
  mutable evictions : int;
  mutable preloaded : int;
  mutable preload_skipped : int;
  mutable invalidations : int;
}

type t = {
  mode : mode;
  generated_cost : Wire.Generic_marshal.cost_model;
  hand_cost : Wire.Hotcodec.cost_model option;
  hit_overhead_ms : float;
  hit_per_node_ms : float;
  insert_overhead_ms : float;
  staleness_budget_ms : float;
  max_entries : int option;
  mutable now : float;
  mutable tick : int;
  mutable entries : (string * entry) list;
  counts : counts;
}

let default_ttl_ms = 3_600_000.0

let create ~mode ~generated_cost ?hand_cost ~hit_overhead_ms ~hit_per_node_ms
    ~insert_overhead_ms ~staleness_budget_ms ?max_entries () =
  {
    mode;
    generated_cost;
    hand_cost;
    hit_overhead_ms;
    hit_per_node_ms;
    insert_overhead_ms;
    staleness_budget_ms;
    max_entries;
    now = 0.0;
    tick = 0;
    entries = [];
    counts =
      {
        hits = 0;
        misses = 0;
        stale_served = 0;
        neg_hits = 0;
        evictions = 0;
        preloaded = 0;
        preload_skipped = 0;
        invalidations = 0;
      };
  }

let now t = t.now
let charge t d = if d > 0.0 then t.now <- t.now +. d
let advance t d = charge t d
let size t = List.length t.entries
let pinned t = List.length (List.filter (fun (_, e) -> e.pinned) t.entries)

let counts t =
  let c = t.counts in
  let m = match t.mode with Marshalled -> "marshalled" | Demarshalled -> "demarshalled" in
  [
    ("hns.cache." ^ m ^ ".hits", c.hits);
    ("hns.cache." ^ m ^ ".misses", c.misses);
    ("hns.cache.stale_served", c.stale_served);
    ("hns.cache.neg_hits", c.neg_hits);
    ("hns.cache.evictions", c.evictions);
    ("hns.cache.preloaded", c.preloaded);
    ("hns.cache.preload_skipped", c.preload_skipped);
    ("hns.cache.invalidations", c.invalidations);
  ]

(* The shapes of the generated programs that the hand codec covers. *)
let hot_ty = function Wire.Idl.T_string | Wire.Idl.T_uint -> true | _ -> false

let drop t key = t.entries <- List.remove_assoc key t.entries
let put t key e = t.entries <- (key, e) :: List.remove_assoc key t.entries

let touch t key e =
  t.tick <- t.tick + 1;
  put t key { e with recency = t.tick }

(* What a hit on a positive entry returns, and the cost it charges. *)
let decode t ~ty = function
  | Value v ->
      charge t
        (t.hit_overhead_ms +. (t.hit_per_node_ms *. float_of_int (Wire.Value.node_count v)));
      v
  | Addr ip ->
      charge t (t.hit_overhead_ms +. t.hit_per_node_ms);
      Wire.Value.Uint ip
  | Bytes v ->
      charge t t.hit_overhead_ms;
      (match t.hand_cost with
      | Some hc when hot_ty ty -> charge t (Wire.Hotcodec.cost hc ~records:1)
      | _ -> charge t (Wire.Generic_marshal.cost t.generated_cost v));
      v
  | Negative -> invalid_arg "Cache_model.decode: negative entry"

(* What an entry is at the model's clock: fresh, a fresh negative,
   expired but inside the staleness budget, or dead. An expired
   negative is dead at once. *)
let state t e : Hns.Cache.state =
  if e.expires_at > t.now then if e.form = Negative then Negative else Fresh
  else if e.form <> Negative && t.now <= e.expires_at +. t.staleness_budget_ms then Stale
  else Dead

let probe t ~key = Option.map (state t) (List.assoc_opt key t.entries)

let read t ~key ~ty ~miss : (_, _) Hns.Cache.read =
  let missed () =
    t.counts.misses <- t.counts.misses + 1;
    miss ()
  in
  match List.assoc_opt key t.entries with
  | None -> missed ()
  | Some e -> (
      match state t e with
      | Fresh ->
          let v = decode t ~ty e.form in
          touch t key e;
          t.counts.hits <- t.counts.hits + 1;
          Hit v
      | Negative ->
          charge t t.hit_overhead_ms;
          touch t key e;
          t.counts.neg_hits <- t.counts.neg_hits + 1;
          Negative_hit
      | Stale -> missed ()
      | Dead ->
          drop t key;
          missed ())

let find t ~key ~ty =
  match read t ~key ~ty ~miss:(fun () -> Failed ()) with Hit v -> Some v | _ -> None

(* A failed fetch is answered by an entry that is stale when it fails. *)
let through t ~key ~ty ~fetch =
  read t ~key ~ty ~miss:(fun () : (_, _) Hns.Cache.read ->
      match fetch () with
      | Ok a -> Fetched a
      | Error err -> (
          match List.assoc_opt key t.entries with
          | Some e when state t e = Stale ->
              let v = decode t ~ty e.form in
              touch t key e;
              t.counts.stale_served <- t.counts.stale_served + 1;
              Stale_hit v
          | _ -> Failed err))

let find_addr t ~key =
  match List.assoc_opt key t.entries with
  | Some ({ form = Addr ip | Value (Wire.Value.Uint ip); _ } as e) when state t e = Fresh ->
      charge t (t.hit_overhead_ms +. t.hit_per_node_ms);
      touch t key e;
      t.counts.hits <- t.counts.hits + 1;
      Some ip
  | _ -> None

let least_recent entries =
  List.fold_left
    (fun acc (k, e) ->
      match acc with
      | Some (_, best) when best.recency <= e.recency -> acc
      | _ -> Some (k, e))
    None entries

(* A new key in a full cache evicts the least recently used dead entry,
   pinned or not; else the least recently used unpinned one; else the
   least recently used of all. *)
let make_room t ~key =
  match t.max_entries with
  | Some max when size t >= max && not (List.mem_assoc key t.entries) -> (
      let among p = least_recent (List.filter (fun (_, e) -> p e) t.entries) in
      let victim =
        match among (fun e -> state t e = Dead) with
        | Some _ as v -> v
        | None -> (
            match among (fun e -> not e.pinned) with
            | Some _ as v -> v
            | None -> among (fun _ -> true))
      in
      match victim with
      | Some (k, _) ->
          drop t k;
          t.counts.evictions <- t.counts.evictions + 1
      | None -> ())
  | _ -> ()

let store t ~key ~ttl_ms ~pinned form =
  make_room t ~key;
  t.tick <- t.tick + 1;
  put t key { form; expires_at = t.now +. ttl_ms; pinned; recency = t.tick }

let form_of t v = match t.mode with Demarshalled -> Value v | Marshalled -> Bytes v

let insert t ~key ?(ttl_ms = default_ttl_ms) v =
  charge t t.insert_overhead_ms;
  store t ~key ~ttl_ms ~pinned:false (form_of t v)

let insert_negative t ~key ~ttl_ms =
  charge t t.insert_overhead_ms;
  store t ~key ~ttl_ms ~pinned:false Negative

let insert_addr t ~key ip =
  charge t t.insert_overhead_ms;
  store t ~key ~ttl_ms:default_ttl_ms ~pinned:false (Addr ip)

let quota t = match t.max_entries with None -> max_int | Some m -> max 1 (m * 3 / 4)

(* Rows are admitted in order, pinned, while the pinned entries stay
   under the quota; a row whose key is already pinned is always
   admitted. The first row refused drops the dead pinned entries, once
   per load, and is tried again; a row still refused is skipped and
   drops whatever its key held. *)
let bulk t rows =
  let inserted = ref 0 and purged = ref false in
  let admitted key =
    (match List.assoc_opt key t.entries with Some e -> e.pinned | None -> false)
    || pinned t < quota t
    || (not !purged)
       && begin
            purged := true;
            t.entries <- List.filter (fun (_, e) -> not (e.pinned && state t e = Dead)) t.entries;
            pinned t < quota t
          end
  in
  List.iter
    (fun (key, ttl_ms, form) ->
      if admitted key then begin
        charge t t.insert_overhead_ms;
        store t ~key ~ttl_ms ~pinned:true form;
        incr inserted
      end
      else begin
        drop t key;
        t.counts.preload_skipped <- t.counts.preload_skipped + 1
      end)
    rows;
  t.counts.preloaded <- t.counts.preloaded + !inserted;
  !inserted

let preload t rows = bulk t (List.map (fun (key, ttl_ms, v) -> (key, ttl_ms, form_of t v)) rows)
let preload_addrs t rows = bulk t (List.map (fun (key, ttl_ms, ip) -> (key, ttl_ms, Addr ip)) rows)

let remove t ~key =
  let present = List.mem_assoc key t.entries in
  if present then begin
    drop t key;
    t.counts.invalidations <- t.counts.invalidations + 1
  end;
  present

let flush t =
  t.entries <- [];
  t.counts.hits <- 0;
  t.counts.misses <- 0;
  t.counts.stale_served <- 0;
  t.counts.neg_hits <- 0
