type mode = Marshalled | Demarshalled

type stored =
  | Bytes_form of string
  | Value_form of Wire.Value.t
  | Addr_form of int32
    (* a prefetch-tail HostAddress row decoded by the hand codec:
       native, no Value tree *)
  | Negative_form  (* a cached "no such record" answer *)

type entry = {
  stored : stored;
  expires_at : float;
  mutable last_used : int;
  pinned : bool; (* preload-sourced: exempt from LRU eviction *)
}

type t = {
  mode : mode;
  generated_cost : Wire.Generic_marshal.cost_model;
  hand_cost : Wire.Hotcodec.cost_model option;
      (* when set, marshalled-mode hits on hot record shapes demarshal
         through the hand codec and charge its (much smaller) cost *)
  hit_overhead_ms : float;
  hit_per_node_ms : float;
  insert_overhead_ms : float;
  staleness_budget_ms : float;
  max_entries : int option;
  tbl : (string, entry) Hashtbl.t;
  mutable tick : int; (* logical clock for LRU recency *)
  mutable pinned_count : int;
  hits : Obs.Metrics.counter;
  misses : Obs.Metrics.counter;
  stale_served : Obs.Metrics.counter;
  neg_hits : Obs.Metrics.counter;
  lru_evictions : Obs.Metrics.counter;
  preloaded : Obs.Metrics.counter;
  preload_skipped : Obs.Metrics.counter;
  invalidations : Obs.Metrics.counter;
}

(* The canonical storage representation for marshalled entries. *)
let storage_rep = Wire.Data_rep.Xdr

(* An hour: the TTL of an insert that names none. *)
let default_ttl_ms = 3_600_000.0

(* Registry instruments, split by storage mode so Table 3.2's
   marshalled-vs-demarshalled contrast shows up on the panel. *)
type mode_metrics = {
  m_hits : Obs.Metrics.counter;
  m_misses : Obs.Metrics.counter;
  m_evictions : Obs.Metrics.counter;
  m_hit_ms : Obs.Metrics.histogram;
}

let mode_metrics prefix =
  {
    m_hits = Obs.Metrics.counter (prefix ^ ".hits");
    m_misses = Obs.Metrics.counter (prefix ^ ".misses");
    m_evictions = Obs.Metrics.counter (prefix ^ ".evictions");
    m_hit_ms = Obs.Metrics.histogram (prefix ^ ".hit_ms");
  }

let marshalled_metrics = mode_metrics "hns.cache.marshalled"
let demarshalled_metrics = mode_metrics "hns.cache.demarshalled"

let m_stale_served = Obs.Metrics.counter "hns.cache.stale_served"
let m_neg_hits = Obs.Metrics.counter "hns.cache.neg_hits"
let m_lru_evictions = Obs.Metrics.counter "hns.cache.evictions"
let m_preloaded = Obs.Metrics.counter "hns.cache.preloaded"
let m_preload_skipped = Obs.Metrics.counter "hns.cache.preload_skipped"
let m_invalidations = Obs.Metrics.counter "hns.cache.invalidations"

let metrics_of = function
  | Marshalled -> marshalled_metrics
  | Demarshalled -> demarshalled_metrics

let create ~mode
    ?(generated_cost = { Wire.Generic_marshal.per_call_ms = 0.0; per_node_ms = 0.0 })
    ?hand_cost ?(hit_overhead_ms = 0.0) ?(hit_per_node_ms = 0.0)
    ?(insert_overhead_ms = 0.0) ?(staleness_budget_ms = 0.0) ?max_entries () =
  (match max_entries with
  | Some n when n <= 0 -> invalid_arg "Cache.create: max_entries must be positive"
  | _ -> ());
  let m = metrics_of mode in
  {
    mode;
    generated_cost;
    hand_cost;
    hit_overhead_ms;
    hit_per_node_ms;
    insert_overhead_ms;
    staleness_budget_ms;
    max_entries;
    tbl = Hashtbl.create 64;
    tick = 0;
    pinned_count = 0;
    hits = Obs.Metrics.owned m.m_hits;
    misses = Obs.Metrics.owned m.m_misses;
    stale_served = Obs.Metrics.owned m_stale_served;
    neg_hits = Obs.Metrics.owned m_neg_hits;
    lru_evictions = Obs.Metrics.owned m_lru_evictions;
    preloaded = Obs.Metrics.owned m_preloaded;
    preload_skipped = Obs.Metrics.owned m_preload_skipped;
    invalidations = Obs.Metrics.owned m_invalidations;
  }

type state = Fresh | Negative | Stale | Dead

(* The one classifier. Past its TTL a positive entry lingers for the
   staleness budget, servable only when a refresh fails; a negative
   entry dies at its TTL, since a stale "no" is worth nothing. *)
let state t e =
  let now = Sim.Engine.time () in
  match e.stored with
  | Negative_form -> if e.expires_at > now then Negative else Dead
  | Bytes_form _ | Value_form _ | Addr_form _ ->
      if e.expires_at > now then Fresh
      else if now <= e.expires_at +. t.staleness_budget_ms then Stale
      else Dead

let probe t ~key = Option.map (state t) (Hashtbl.find_opt t.tbl key)

let touch t entry =
  t.tick <- t.tick + 1;
  entry.last_used <- t.tick

(* Every removal goes through here so the pinned-entry accounting
   stays exact. *)
let remove_key t key =
  match Hashtbl.find_opt t.tbl key with
  | None -> false
  | Some e ->
      Hashtbl.remove t.tbl key;
      if e.pinned then t.pinned_count <- t.pinned_count - 1;
      true

(* Drop an entry the cache can no longer serve (dead, or undecodable),
   counted in the mode's evictions. *)
let discard t key =
  ignore (remove_key t key);
  Obs.Metrics.incr (metrics_of t.mode).m_evictions

(* Decode an entry's stored form, charging the mode-dependent hit cost.
   [None] means the entry was undecodable and has been evicted. *)
let decode_stored t ~key ~ty stored =
  match stored with
  | Negative_form -> None
  | Value_form v ->
      Sim.Engine.charge
        (t.hit_overhead_ms
        +. (t.hit_per_node_ms *. float_of_int (Wire.Value.node_count v)));
      Some v
  | Addr_form ip ->
      (* Compat access to a native address entry through the Value
         interface: the tree is materialised here (and counted — the
         zero-copy resolve path uses find_addr and never reaches
         this). *)
      Sim.Engine.charge (t.hit_overhead_ms +. t.hit_per_node_ms);
      Wire.Hotcodec.count_value_materialization ();
      Some (Wire.Value.Uint ip)
  | Bytes_form bytes -> (
      (* The marshalled cache really demarshals on every access,
         and pays the codec's price for it: the hand codec's when one
         is configured and the shape is hot, the generated stubs'
         otherwise. *)
      Sim.Engine.charge t.hit_overhead_ms;
      match (t.hand_cost, Hot_codec.decode_hot t.hand_cost ty bytes) with
      | Some hc, Some v ->
          Sim.Engine.charge (Wire.Hotcodec.cost hc ~records:1);
          Some v
      | _ -> (
          match Wire.Generic_marshal.unmarshal storage_rep ty bytes with
          | exception _ ->
              discard t key;
              None
          | v ->
              Sim.Engine.charge (Wire.Generic_marshal.cost t.generated_cost v);
              Some v))

type ('a, 'e) read =
  | Hit of Wire.Value.t
  | Negative_hit
  | Fetched of 'a
  | Stale_hit of Wire.Value.t
  | Failed of 'e

let missed t miss =
  Obs.Metrics.incr t.misses;
  miss ()

(* The fresh half of every read: a fresh hit decoded and charged, a
   fresh negative, or a miss that counts and hands over to [miss]. A
   dead entry met on the way is dropped; a stale one is left for
   [through] to serve if the fetch fails. *)
let read t ~key ~ty ~miss =
  let hit_t0 = Sim.Engine.time () in
  match Hashtbl.find_opt t.tbl key with
  | None -> missed t miss
  | Some entry -> (
      match state t entry with
      | Fresh -> (
          match decode_stored t ~key ~ty entry.stored with
          | None -> missed t miss
          | Some v ->
              touch t entry;
              Obs.Metrics.incr t.hits;
              Obs.Metrics.observe (metrics_of t.mode).m_hit_ms (Sim.Engine.time () -. hit_t0);
              Hit v)
      | Negative ->
          Sim.Engine.charge t.hit_overhead_ms;
          touch t entry;
          Obs.Metrics.incr t.neg_hits;
          Negative_hit
      | Stale -> missed t miss
      | Dead ->
          discard t key;
          missed t miss)

let find t ~key ~ty =
  match read t ~key ~ty ~miss:(fun () -> Failed ()) with Hit v -> Some v | _ -> None

let through t ~key ~ty ~fetch =
  read t ~key ~ty ~miss:(fun () ->
      match fetch () with
      | Ok a -> Fetched a
      | Error e -> (
          (* The fetch failed: the entry is classified again, at the
             time it failed, and only now decoded and charged. *)
          match Hashtbl.find_opt t.tbl key with
          | Some entry when state t entry = Stale -> (
              match decode_stored t ~key ~ty entry.stored with
              | Some v ->
                  touch t entry;
                  Obs.Metrics.incr t.stale_served;
                  Stale_hit v
              | None -> Failed e)
          | _ -> Failed e))

(* Capacity bound: before a NEW key enters a full cache, one scan picks
   the victim — the least recently used dead entry, pinned or not; else
   the least recently used unpinned entry, so demand traffic churning
   through a bounded cache cannot wash out the zone snapshot a preload
   paid a transfer for; else the least recently used of all. An O(n)
   scan: the bound caps memory under large preloads and is not a hot
   path. *)
let make_room t ~key =
  match t.max_entries with
  | Some max when Hashtbl.length t.tbl >= max && not (Hashtbl.mem t.tbl key) -> (
      let victim =
        Hashtbl.fold
          (fun k e best ->
            let rank = if state t e = Dead then 0 else if e.pinned then 2 else 1 in
            match best with
            | Some (_, r, b) when r < rank || (r = rank && b.last_used <= e.last_used) -> best
            | _ -> Some (k, rank, e))
          t.tbl None
      in
      match victim with
      | None -> ()
      | Some (k, _, _) ->
          ignore (remove_key t k);
          Obs.Metrics.incr t.lru_evictions)
  | _ -> ()

let insert_stored t ~key ~ttl_ms ~pinned stored =
  make_room t ~key;
  (match Hashtbl.find_opt t.tbl key with
  | Some old when old.pinned -> t.pinned_count <- t.pinned_count - 1
  | _ -> ());
  if pinned then t.pinned_count <- t.pinned_count + 1;
  t.tick <- t.tick + 1;
  Hashtbl.replace t.tbl key
    { stored; expires_at = Sim.Engine.time () +. ttl_ms; last_used = t.tick; pinned }

let stored_of t ~ty v =
  match t.mode with
  | Demarshalled -> Value_form v
  | Marshalled -> Bytes_form (Wire.Generic_marshal.marshal storage_rep ty v)

let insert t ~key ~ty ?(ttl_ms = default_ttl_ms) v =
  Sim.Engine.charge t.insert_overhead_ms;
  insert_stored t ~key ~ttl_ms ~pinned:false (stored_of t ~ty v)

(* Native host-address entries (the zero-copy prefetch tail): a bare
   int32 with no Value tree on either side. [find] still serves them
   (decode_stored materialises the Uint, counted). *)

let insert_addr t ~key ip =
  Sim.Engine.charge t.insert_overhead_ms;
  insert_stored t ~key ~ttl_ms:default_ttl_ms ~pinned:false (Addr_form ip)

let find_addr t ~key =
  match Hashtbl.find_opt t.tbl key with
  | Some ({ stored = Addr_form ip | Value_form (Wire.Value.Uint ip); _ } as entry)
    when state t entry = Fresh ->
      (* A native entry, or one demand-filled by a legacy writer: the
         int is read straight out of the stored form. *)
      let hit_t0 = Sim.Engine.time () in
      Sim.Engine.charge (t.hit_overhead_ms +. t.hit_per_node_ms);
      touch t entry;
      Obs.Metrics.incr t.hits;
      Obs.Metrics.observe (metrics_of t.mode).m_hit_ms (Sim.Engine.time () -. hit_t0);
      Some ip
  | _ ->
      (* Not a fresh native/address entry: no miss counted — the
         caller falls through to the full [find] path, which does the
         accounting. *)
      None

(* A later successful [insert] at the same key overrides the negative
   entry (Hashtbl.replace above), so negatives cannot poison. *)
let insert_negative t ~key ~ttl_ms =
  Sim.Engine.charge t.insert_overhead_ms;
  insert_stored t ~key ~ttl_ms ~pinned:false Negative_form

(* Drop one entry (change propagation: the record was deleted at the
   source). Returns whether anything was cached under the key. *)
let remove t ~key =
  let removed = remove_key t key in
  if removed then Obs.Metrics.incr t.invalidations;
  removed

(* Preload admission quota: in a bounded cache, pinned (preloaded)
   entries may occupy at most 3/4 of the capacity, reserving the rest
   for demand traffic. *)
let preload_quota t =
  match t.max_entries with
  | None -> Stdlib.max_int
  | Some max -> Stdlib.max 1 (max * 3 / 4)

(* The admission loop of both bulk loads (AXFR preload / IXFR delta
   refresh, and the prefetch tail): rows are pinned in order while the
   pinned entries stay under the quota, and a row whose key is already
   pinned always replaces it. The first row that meets a full quota
   first drops the dead pinned entries, once per load; a row still
   refused is skipped rather than inserted only to evict another, and
   takes the older value at its key with it, so that value is not
   served as fresh in the newer row's place. *)
let admit t rows ~key_of ~insert_row =
  let quota = preload_quota t in
  let inserted = ref 0 and skipped = ref 0 and purged = ref false in
  let drop_dead_pinned () =
    purged := true;
    Hashtbl.fold
      (fun k e dead -> if e.pinned && state t e = Dead then k :: dead else dead)
      t.tbl []
    |> List.iter (discard t)
  in
  List.iter
    (fun row ->
      let key = key_of row in
      let already_pinned =
        match Hashtbl.find_opt t.tbl key with Some e -> e.pinned | None -> false
      in
      if
        already_pinned || t.pinned_count < quota
        || ((not !purged)
           && (drop_dead_pinned ();
               t.pinned_count < quota))
      then begin
        Sim.Engine.charge t.insert_overhead_ms;
        insert_row row;
        incr inserted
      end
      else begin
        ignore (remove_key t key);
        incr skipped
      end)
    rows;
  Obs.Metrics.add t.preloaded !inserted;
  Obs.Metrics.add t.preload_skipped !skipped;
  !inserted

let preload t entries =
  admit t entries
    ~key_of:(fun (key, _, _, _) -> key)
    ~insert_row:(fun (key, ty, ttl_ms, v) ->
      insert_stored t ~key ~ttl_ms ~pinned:true (stored_of t ~ty v))

let preload_addrs t rows =
  admit t rows
    ~key_of:(fun (key, _, _) -> key)
    ~insert_row:(fun (key, ttl_ms, ip) ->
      insert_stored t ~key ~ttl_ms ~pinned:true (Addr_form ip))

let flush t =
  Hashtbl.reset t.tbl;
  t.pinned_count <- 0;
  List.iter Obs.Metrics.zero [ t.hits; t.misses; t.stale_served; t.neg_hits ]

let metrics t =
  Obs.Metrics.scope
    [ t.hits; t.misses; t.stale_served; t.neg_hits; t.lru_evictions; t.preloaded;
      t.preload_skipped; t.invalidations ]

let pinned t = t.pinned_count
let size t = Hashtbl.length t.tbl

let stored_bytes t =
  Hashtbl.fold
    (fun _ e acc ->
      match e.stored with
      | Bytes_form b -> acc + String.length b
      | Value_form _ | Addr_form _ | Negative_form -> acc)
    t.tbl 0

let hit_ratio t =
  let hits = Obs.Metrics.value t.hits in
  let total = hits + Obs.Metrics.value t.misses in
  if total = 0 then 0.0 else float_of_int hits /. float_of_int total
