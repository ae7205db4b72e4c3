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
  default_ttl_ms : float;
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
    ?(insert_overhead_ms = 0.0) ?(default_ttl_ms = 3_600_000.0)
    ?(staleness_budget_ms = 0.0) ?max_entries () =
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
    default_ttl_ms;
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

let max_entries t = t.max_entries

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
      match t.hand_cost with
      | Some hc when Hot_codec.is_hot_ty ty -> (
          match Hot_codec.decode_value ty bytes with
          | Some v ->
              Sim.Engine.charge (Wire.Hotcodec.cost hc ~records:1);
              Some v
          | None -> (
              Wire.Hotcodec.count_fallback ();
              match Wire.Generic_marshal.unmarshal storage_rep ty bytes with
              | exception _ ->
                  ignore (remove_key t key);
                  Obs.Metrics.incr (metrics_of t.mode).m_evictions;
                  None
              | v ->
                  Sim.Engine.charge (Wire.Generic_marshal.cost t.generated_cost v);
                  Some v))
      | _ -> (
          match Wire.Generic_marshal.unmarshal storage_rep ty bytes with
          | exception _ ->
              ignore (remove_key t key);
              Obs.Metrics.incr (metrics_of t.mode).m_evictions;
              None
          | v ->
              Sim.Engine.charge (Wire.Generic_marshal.cost t.generated_cost v);
              Some v))

type outcome = Hit of Wire.Value.t | Negative_hit | Miss

let find_outcome t ~key ~ty =
  let m = metrics_of t.mode in
  let miss () =
    Obs.Metrics.incr t.misses;
    Miss
  in
  let hit_t0 = Sim.Engine.time () in
  match Hashtbl.find_opt t.tbl key with
  | None -> miss ()
  | Some entry when entry.expires_at <= Sim.Engine.time () ->
      (* Expired entries linger for the staleness budget — find still
         misses (the caller should refresh), but find_stale can serve
         them if that refresh fails. Negative entries never outlive
         their TTL: a stale "no" is worth nothing. *)
      if entry.stored = Negative_form
         || Sim.Engine.time () > entry.expires_at +. t.staleness_budget_ms
      then begin
        ignore (remove_key t key);
        Obs.Metrics.incr m.m_evictions
      end;
      miss ()
  | Some ({ stored = Negative_form; _ } as entry) ->
      Sim.Engine.charge t.hit_overhead_ms;
      touch t entry;
      Obs.Metrics.incr t.neg_hits;
      Negative_hit
  | Some entry -> (
      match decode_stored t ~key ~ty entry.stored with
      | None -> miss ()
      | Some v ->
          touch t entry;
          Obs.Metrics.incr t.hits;
          Obs.Metrics.observe m.m_hit_ms (Sim.Engine.time () -. hit_t0);
          Hit v)

let find t ~key ~ty =
  match find_outcome t ~key ~ty with Hit v -> Some v | Negative_hit | Miss -> None

(* Instrumentation-free probe: is a fresh (positive) value cached?
   Charges nothing and moves no counter — used to decide whether a
   bundle prefetch is worth a round trip without perturbing the
   hit/miss accounting of the walk that follows. *)
let peek t ~key =
  match Hashtbl.find_opt t.tbl key with
  | Some { stored = Bytes_form _ | Value_form _ | Addr_form _; expires_at; _ }
    when expires_at > Sim.Engine.time () ->
      true
  | _ -> false

(* As [peek], but for fresh negative entries. *)
let peek_negative t ~key =
  match Hashtbl.find_opt t.tbl key with
  | Some { stored = Negative_form; expires_at; _ } when expires_at > Sim.Engine.time () ->
      true
  | _ -> false

let find_stale t ~key ~ty =
  match Hashtbl.find_opt t.tbl key with
  | None -> None
  | Some { stored = Negative_form; _ } -> None
  | Some entry ->
      let n = Sim.Engine.time () in
      if
        entry.expires_at <= n
        && n <= entry.expires_at +. t.staleness_budget_ms
      then
        match decode_stored t ~key ~ty entry.stored with
        | None -> None
        | Some v ->
            touch t entry;
            Obs.Metrics.incr t.stale_served;
            Some v
      else None

(* Capacity bound: before adding a NEW key to a full cache, evict the
   least-recently-used entry (an O(n) scan; the bound exists to cap
   memory under large preloads, not to be a hot path). Preload-pinned
   entries are skipped, so demand traffic churning through a bounded
   cache cannot wash out the zone snapshot a preload just paid a
   transfer for; only when every entry is pinned does the scan fall
   back to evicting among them. *)
let evict_lru_if_full t ~key =
  match t.max_entries with
  | Some max
    when Hashtbl.length t.tbl >= max && not (Hashtbl.mem t.tbl key) -> (
      let pick_lru ~respect_pin =
        Hashtbl.fold
          (fun k e acc ->
            if respect_pin && e.pinned then acc
            else
              match acc with
              | Some (_, best) when best.last_used <= e.last_used -> acc
              | _ -> Some (k, e))
          t.tbl None
      in
      let victim =
        match pick_lru ~respect_pin:true with
        | Some _ as v -> v
        | None -> pick_lru ~respect_pin:false
      in
      match victim with
      | None -> ()
      | Some (k, _) ->
          ignore (remove_key t k);
          Obs.Metrics.incr t.lru_evictions)
  | _ -> ()

let insert_stored t ~key ~ttl_ms ?(pinned = false) stored =
  let ttl = match ttl_ms with Some ms -> ms | None -> t.default_ttl_ms in
  evict_lru_if_full t ~key;
  (match Hashtbl.find_opt t.tbl key with
  | Some old when old.pinned -> t.pinned_count <- t.pinned_count - 1
  | _ -> ());
  if pinned then t.pinned_count <- t.pinned_count + 1;
  t.tick <- t.tick + 1;
  Hashtbl.replace t.tbl key
    { stored; expires_at = Sim.Engine.time () +. ttl; last_used = t.tick; pinned }

let stored_of t ~ty v =
  match t.mode with
  | Demarshalled -> Value_form v
  | Marshalled -> Bytes_form (Wire.Generic_marshal.marshal storage_rep ty v)

let insert t ~key ~ty ?ttl_ms v =
  Sim.Engine.charge t.insert_overhead_ms;
  insert_stored t ~key ~ttl_ms (stored_of t ~ty v)

(* --- Native host-address entries (zero-copy prefetch tail). ---------
   The hand codec decodes a HostAddress row to a bare int32;
   [insert_addr]/[find_addr] store and serve it with no Value tree on
   either side.  [find] still works on such entries (decode_stored
   materialises the Uint, counted), so legacy readers see no
   difference. *)

let insert_addr t ~key ip =
  Sim.Engine.charge t.insert_overhead_ms;
  insert_stored t ~key ~ttl_ms:None (Addr_form ip)

let find_addr t ~key =
  let serve entry ip =
    Sim.Engine.charge (t.hit_overhead_ms +. t.hit_per_node_ms);
    touch t entry;
    Obs.Metrics.incr t.hits;
    Some ip
  in
  match Hashtbl.find_opt t.tbl key with
  | Some ({ stored = Addr_form ip; expires_at; _ } as entry)
    when expires_at > Sim.Engine.time () ->
      serve entry ip
  | Some ({ stored = Value_form (Wire.Value.Uint ip); expires_at; _ } as entry)
    when expires_at > Sim.Engine.time () ->
      (* Demand-filled by a legacy writer: already demarshalled, the
         int is read straight out of the stored value. *)
      serve entry ip
  | _ ->
      (* Not a fresh native/address entry: no miss counted — the
         caller falls through to the full [find] path, which does the
         accounting. *)
      None

(* A later successful [insert] at the same key overrides the negative
   entry (Hashtbl.replace above), so negatives cannot poison. *)
let insert_negative t ~key ~ttl_ms =
  Sim.Engine.charge t.insert_overhead_ms;
  insert_stored t ~key ~ttl_ms:(Some ttl_ms) Negative_form

(* Drop one entry (change propagation: the record was deleted at the
   source). Returns whether anything was cached under the key. *)
let remove t ~key =
  let removed = remove_key t key in
  if removed then Obs.Metrics.incr t.invalidations;
  removed

(* Preload admission quota: in a bounded cache, pinned (preloaded)
   entries may occupy at most 3/4 of the capacity, reserving the rest
   for demand traffic. A preload larger than the quota keeps the
   first [quota] entries and skips the overflow — it never evicts
   what it just inserted. *)
let preload_quota t =
  match t.max_entries with
  | None -> Stdlib.max_int
  | Some max -> Stdlib.max 1 (max * 3 / 4)

(* Bulk seeding (AXFR preload / IXFR delta refresh): pinned inserts,
   counted separately so the panel can tell preloaded entries from
   demand-filled ones. *)
let preload t entries =
  let quota = preload_quota t in
  let inserted = ref 0 and skipped = ref 0 in
  List.iter
    (fun (key, ty, ttl_ms, v) ->
      let already_pinned =
        match Hashtbl.find_opt t.tbl key with
        | Some e -> e.pinned
        | None -> false
      in
      if already_pinned || t.pinned_count < quota then begin
        Sim.Engine.charge t.insert_overhead_ms;
        insert_stored t ~key ~ttl_ms:(Some ttl_ms) ~pinned:true
          (stored_of t ~ty v);
        incr inserted
      end
      else incr skipped)
    entries;
  Obs.Metrics.add t.preloaded !inserted;
  Obs.Metrics.add t.preload_skipped !skipped;
  !inserted

(* Bulk native seeding: the prefetch-tail rows of a bundle reply,
   pinned under the same admission quota as [preload]. *)
let preload_addrs t rows =
  let quota = preload_quota t in
  let inserted = ref 0 and skipped = ref 0 in
  List.iter
    (fun (key, ttl_ms, ip) ->
      let already_pinned =
        match Hashtbl.find_opt t.tbl key with
        | Some e -> e.pinned
        | None -> false
      in
      if already_pinned || t.pinned_count < quota then begin
        Sim.Engine.charge t.insert_overhead_ms;
        insert_stored t ~key ~ttl_ms:(Some ttl_ms) ~pinned:true (Addr_form ip);
        incr inserted
      end
      else incr skipped)
    rows;
  Obs.Metrics.add t.preloaded !inserted;
  Obs.Metrics.add t.preload_skipped !skipped;
  !inserted

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
