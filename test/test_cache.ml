(* Hns.Cache against its reference model (cache_model.ml), and the
   serving rules the cache promises, checked on their own: no fresh read
   past the TTL, a stale read only inside the staleness budget, never a
   stale negative, and pinned entries within their quota. *)

open Helpers
module C = Hns.Cache
module M = Cache_model

(* Six keys of three shapes: strings and addresses are hot for the hand
   codec, arrays are not. *)
let n_keys = 6
let key i = "k" ^ string_of_int i

let key_ty i =
  match i mod 3 with
  | 0 -> Wire.Idl.T_string
  | 1 -> Wire.Idl.T_uint
  | _ -> Wire.Idl.T_array Wire.Idl.T_int

let value i seed =
  match i mod 3 with
  | 0 -> Wire.Value.Str ("v" ^ string_of_int seed)
  | 1 -> Wire.Value.Uint (Int32.of_int seed)
  | _ -> Wire.Value.Array (List.init (seed mod 4) Wire.Value.int)

type config = {
  mode : C.mode;
  max_entries : int option;
  budget : float;
  costs : bool;  (** the calibrated-style hit and insert costs, or none *)
  hand : bool;  (** a hand-codec cost model for hot shapes *)
}

(* A read-through's fetch: it takes [dt] ms, may insert what it found,
   and succeeds or fails. *)
type fetch = { dt : float; fill : (int * float) option; ok : bool }

type op =
  | Insert of int * int * float option
  | Insert_negative of int * float
  | Insert_addr of int * int
  | Preload of (int * int * float) list
  | Preload_addrs of (int * float * int) list
  | Find of int
  | Through of int * fetch
  | Find_addr of int
  | Probe of int
  | Remove of int
  | Flush
  | Advance of float

let generated_cost costs =
  if costs then { Wire.Generic_marshal.per_call_ms = 1.2; per_node_ms = 0.35 }
  else { Wire.Generic_marshal.per_call_ms = 0.0; per_node_ms = 0.0 }

let hand_cost cfg =
  if cfg.hand then Some { Wire.Hotcodec.per_call_ms = 0.4; per_record_ms = 0.09 } else None

let hit_overhead cfg = if cfg.costs then 0.8 else 0.0
let hit_per_node cfg = if cfg.costs then 0.05 else 0.0
let insert_overhead cfg = if cfg.costs then 0.3 else 0.0

let new_cache cfg =
  C.create ~mode:cfg.mode ~generated_cost:(generated_cost cfg.costs) ?hand_cost:(hand_cost cfg)
    ~hit_overhead_ms:(hit_overhead cfg) ~hit_per_node_ms:(hit_per_node cfg)
    ~insert_overhead_ms:(insert_overhead cfg) ~staleness_budget_ms:cfg.budget
    ?max_entries:cfg.max_entries ()

let new_model cfg =
  M.create ~mode:cfg.mode ~generated_cost:(generated_cost cfg.costs) ?hand_cost:(hand_cost cfg)
    ~hit_overhead_ms:(hit_overhead cfg) ~hit_per_node_ms:(hit_per_node cfg)
    ~insert_overhead_ms:(insert_overhead cfg) ~staleness_budget_ms:cfg.budget
    ?max_entries:cfg.max_entries ()

(* TTLs and steps of a few milliseconds make expiry, the budget's edge
   and eviction of the dead all common; the hour is the default TTL. A
   budget of 30 ms puts its edge inside a fetch; one of 500 ms makes
   stale answers common. *)
let gen_config =
  let open QCheck.Gen in
  map
    (fun (mode, max_entries, budget, costs, hand) -> { mode; max_entries; budget; costs; hand })
    (tup5
       (oneofl [ C.Marshalled; C.Demarshalled ])
       (oneof [ return None; map Option.some (int_range 1 6) ])
       (oneofl [ 0.0; 30.0; 500.0 ])
       bool bool)

let gen_op =
  let open QCheck.Gen in
  let k = int_bound (n_keys - 1) and seed = int_bound 9 in
  let ttl = oneofl [ 1.0; 4.0; 15.0; 60.0; 3_600_000.0 ] in
  let rows g = list_size (int_range 1 4) g in
  frequency
    [
      (4, map3 (fun k s t -> Insert (k, s, t)) k seed (opt ttl));
      (2, map2 (fun k t -> Insert_negative (k, t)) k ttl);
      (1, map2 (fun k s -> Insert_addr (k, s)) k seed);
      (2, map (fun r -> Preload r) (rows (triple k seed ttl)));
      (1, map (fun r -> Preload_addrs r) (rows (triple k ttl seed)));
      (3, map (fun k -> Find k) k);
      ( 5,
        map2
          (fun k (dt, fill, ok) -> Through (k, { dt; fill; ok }))
          k
          (triple
             (oneofl [ 0.5; 3.0; 20.0; 45.0 ])
             (frequency [ (2, return None); (1, map Option.some (pair seed ttl)) ])
             bool) );
      (2, map (fun k -> Find_addr k) k);
      (2, map (fun k -> Probe k) k);
      (1, map (fun k -> Remove k) k);
      (1, return Flush);
      (4, map (fun d -> Advance d) (oneofl [ 0.5; 2.0; 7.0; 25.0; 90.0 ]));
    ]

let print_op = function
  | Insert (k, s, t) ->
      Printf.sprintf "insert k%d v%d%s" k s
        (Option.fold ~none:"" ~some:(Printf.sprintf " ttl %g") t)
  | Insert_negative (k, t) -> Printf.sprintf "negative k%d ttl %g" k t
  | Insert_addr (k, s) -> Printf.sprintf "addr k%d %d" k s
  | Preload rows ->
      "preload ["
      ^ String.concat "; " (List.map (fun (k, s, t) -> Printf.sprintf "k%d v%d %g" k s t) rows)
      ^ "]"
  | Preload_addrs rows ->
      "preload_addrs ["
      ^ String.concat "; " (List.map (fun (k, t, s) -> Printf.sprintf "k%d %g %d" k t s) rows)
      ^ "]"
  | Find k -> Printf.sprintf "find k%d" k
  | Through (k, f) ->
      Printf.sprintf "through k%d (fetch %g ms%s, %s)" k f.dt
        (Option.fold ~none:"" ~some:(fun (s, t) -> Printf.sprintf ", fills v%d ttl %g" s t) f.fill)
        (if f.ok then "ok" else "fails")
  | Find_addr k -> Printf.sprintf "find_addr k%d" k
  | Probe k -> Printf.sprintf "probe k%d" k
  | Remove k -> Printf.sprintf "remove k%d" k
  | Flush -> "flush"
  | Advance d -> Printf.sprintf "advance %g" d

let mode_name = function C.Marshalled -> "marshalled" | C.Demarshalled -> "demarshalled"

let print_case (cfg, ops) =
  Printf.sprintf "%s max=%s budget=%g costs=%b hand=%b\n  %s"
    (mode_name cfg.mode)
    (Option.fold ~none:"-" ~some:string_of_int cfg.max_entries)
    cfg.budget cfg.costs cfg.hand
    (String.concat "\n  " (List.map print_op ops))

let arb_case =
  QCheck.make ~print:print_case
    QCheck.Gen.(pair gen_config (list_size (int_range 1 40) gen_op))

(* Runs [step] on each op inside one simulated process; the first
   [Error] stops the run and fails the property with the op's index. *)
let run_ops ops step =
  let engine = Sim.Engine.create () in
  let outcome = ref (Ok ()) in
  Sim.Engine.spawn engine (fun () ->
      let rec go i = function
        | [] -> ()
        | op :: rest -> (
            match step op with
            | Ok () -> go (i + 1) rest
            | Error msg -> outcome := Error (Printf.sprintf "op %d (%s): %s" i (print_op op) msg))
      in
      go 0 ops);
  Sim.Engine.run engine;
  match !outcome with Ok () -> true | Error msg -> QCheck.Test.fail_report msg

let show_value v = Format.asprintf "%a" Wire.Value.pp v

let show_opt show = function None -> "None" | Some x -> "Some " ^ show x

let same name show a b =
  if a = b then Ok () else Error (Printf.sprintf "%s: cache %s, model %s" name (show a) (show b))

let same_value_opt name a b =
  if Option.equal Wire.Value.equal a b then Ok ()
  else Error (Printf.sprintf "%s: cache %s, model %s" name (show_opt show_value a) (show_opt show_value b))

let ( let* ) = Result.bind

(* --- the cache against its model --- *)

let show_read : (unit, unit) C.read -> string = function
  | C.Hit v -> "Hit " ^ show_value v
  | C.Negative_hit -> "Negative_hit"
  | C.Fetched () -> "Fetched"
  | C.Stale_hit v -> "Stale_hit " ^ show_value v
  | C.Failed () -> "Failed"

let same_read a b =
  match (a, b) with
  | C.Hit x, C.Hit y | C.Stale_hit x, C.Stale_hit y -> same_value_opt "through" (Some x) (Some y)
  | C.Negative_hit, C.Negative_hit | C.Fetched (), C.Fetched () | C.Failed (), C.Failed () -> Ok ()
  | _ -> Error (Printf.sprintf "through: cache %s, model %s" (show_read a) (show_read b))

let show_state = function
  | None -> "absent"
  | Some C.Fresh -> "fresh"
  | Some C.Negative -> "negative"
  | Some C.Stale -> "stale"
  | Some C.Dead -> "dead"

(* The fetch on the cache's side: it sleeps, may insert, then answers. *)
let cache_fetch c k f () =
  Sim.Engine.sleep f.dt;
  Option.iter (fun (s, ttl_ms) -> C.insert c ~key:(key k) ~ty:(key_ty k) ~ttl_ms (value k s)) f.fill;
  if f.ok then Ok () else Error ()

(* The model's hit count before and after each op, summed over the ops
   but [flush], which zeroes it: the hits the model served. *)
let model_hits cfg m = List.assoc ("hns.cache." ^ mode_name cfg.mode ^ ".hits") (M.counts m)

let model_step cfg c m served op =
  let hits0 = model_hits cfg m in
  let* () =
    match op with
    | Insert (k, s, ttl_ms) ->
        C.insert c ~key:(key k) ~ty:(key_ty k) ?ttl_ms (value k s);
        M.insert m ~key:(key k) ?ttl_ms (value k s);
        Ok ()
    | Insert_negative (k, ttl_ms) ->
        C.insert_negative c ~key:(key k) ~ttl_ms;
        M.insert_negative m ~key:(key k) ~ttl_ms;
        Ok ()
    | Insert_addr (k, s) ->
        C.insert_addr c ~key:(key k) (Int32.of_int s);
        M.insert_addr m ~key:(key k) (Int32.of_int s);
        Ok ()
    | Preload rows ->
        same "preload" string_of_int
          (C.preload c (List.map (fun (k, s, t) -> (key k, key_ty k, t, value k s)) rows))
          (M.preload m (List.map (fun (k, s, t) -> (key k, t, value k s)) rows))
    | Preload_addrs rows ->
        let rows = List.map (fun (k, t, s) -> (key k, t, Int32.of_int s)) rows in
        same "preload_addrs" string_of_int (C.preload_addrs c rows) (M.preload_addrs m rows)
    | Find k ->
        same_value_opt "find"
          (C.find c ~key:(key k) ~ty:(key_ty k))
          (M.find m ~key:(key k) ~ty:(key_ty k))
    | Through (k, f) ->
        let model_fetch () =
          M.advance m f.dt;
          Option.iter (fun (s, ttl_ms) -> M.insert m ~key:(key k) ~ttl_ms (value k s)) f.fill;
          if f.ok then Ok () else Error ()
        in
        same_read
          (C.through c ~key:(key k) ~ty:(key_ty k) ~fetch:(cache_fetch c k f))
          (M.through m ~key:(key k) ~ty:(key_ty k) ~fetch:model_fetch)
    | Find_addr k ->
        same "find_addr" (show_opt Int32.to_string)
          (C.find_addr c ~key:(key k))
          (M.find_addr m ~key:(key k))
    | Probe k -> same "probe" show_state (C.probe c ~key:(key k)) (M.probe m ~key:(key k))
    | Remove k -> same "remove" string_of_bool (C.remove c ~key:(key k)) (M.remove m ~key:(key k))
    | Flush ->
        C.flush c;
        M.flush m;
        Ok ()
    | Advance d ->
        Sim.Engine.sleep d;
        M.advance m d;
        Ok ()
  in
  if op <> Flush then served := !served + model_hits cfg m - hits0;
  let* () =
    if same_bits (Sim.Engine.time ()) (M.now m) then Ok ()
    else Error (Printf.sprintf "clock: cache %h, model %h" (Sim.Engine.time ()) (M.now m))
  in
  let* () = same "size" string_of_int (C.size c) (M.size m) in
  let* () = same "pinned" string_of_int (C.pinned c) (M.pinned m) in
  List.fold_left
    (fun acc (name, n) ->
      let* () = acc in
      same name string_of_int (cache_count c name) n)
    (Ok ()) (M.counts m)

(* Samples in the mode's registry hit_ms histogram: every hit the cache
   serves is timed there, whatever path served it. *)
let hit_samples cfg =
  match Obs.Metrics.find ("hns.cache." ^ mode_name cfg.mode ^ ".hit_ms") with
  | Some (Obs.Metrics.Summary { n; _ }) -> n
  | _ -> 0

let agrees_with_model =
  QCheck.Test.make ~name:"agrees with its reference model" ~count:400 arb_case
    (fun (cfg, ops) ->
      let c = new_cache cfg and m = new_model cfg in
      let samples0 = hit_samples cfg and served = ref 0 in
      run_ops ops (model_step cfg c m served)
      && (hit_samples cfg - samples0 = !served
         || QCheck.Test.fail_reportf "hit_ms: %d samples for %d hits the model served"
              (hit_samples cfg - samples0) !served))

(* --- the serving rules, apart from the model --- *)

(* The writes made at each key since its last [remove] or [flush],
   newest first, with bounds on their expiry: a bulk load charges per
   admitted row, so a row's expiry lies between the op's start and its
   end, plus the TTL. Whatever the cache serves must be the newest
   write: an older value is replaced by a newer one, or dropped with a
   row the quota skipped. *)
type written = Pos of Wire.Value.t | Addr of int32 | Neg
type write = { what : written; lo : float; hi : float }

let serves v w =
  match (w.what, v) with
  | Pos x, _ -> Wire.Value.equal x v
  | Addr ip, Wire.Value.Uint ip' -> Int32.equal ip ip'
  | _ -> false

let check name ok = if ok then Ok () else Error name

let invariant_step cfg c writes op =
  let t0 = Sim.Engine.time () in
  let newest k = match Hashtbl.find_opt writes k with Some (w :: _) -> Some w | _ -> None in
  let record ~since k what ~ttl =
    let prior = Option.value ~default:[] (Hashtbl.find_opt writes k) in
    Hashtbl.replace writes k ({ what; lo = since +. ttl; hi = Sim.Engine.time () +. ttl } :: prior)
  in
  let fresh k p = match newest k with Some w -> p w && w.hi > t0 | None -> false in
  let fresh_value k v = check "fresh read past the TTL, or not the newest write" (fresh k (serves v)) in
  let* () =
    match op with
    | Insert (k, s, ttl) ->
        C.insert c ~key:(key k) ~ty:(key_ty k) ?ttl_ms:ttl (value k s);
        record ~since:t0 k (Pos (value k s)) ~ttl:(Option.value ~default:M.default_ttl_ms ttl);
        Ok ()
    | Insert_negative (k, ttl_ms) ->
        C.insert_negative c ~key:(key k) ~ttl_ms;
        record ~since:t0 k Neg ~ttl:ttl_ms;
        Ok ()
    | Insert_addr (k, s) ->
        C.insert_addr c ~key:(key k) (Int32.of_int s);
        record ~since:t0 k (Addr (Int32.of_int s)) ~ttl:M.default_ttl_ms;
        Ok ()
    | Preload rows ->
        ignore (C.preload c (List.map (fun (k, s, t) -> (key k, key_ty k, t, value k s)) rows));
        List.iter (fun (k, s, ttl) -> record ~since:t0 k (Pos (value k s)) ~ttl) rows;
        Ok ()
    | Preload_addrs rows ->
        ignore (C.preload_addrs c (List.map (fun (k, t, s) -> (key k, t, Int32.of_int s)) rows));
        List.iter (fun (k, ttl, s) -> record ~since:t0 k (Addr (Int32.of_int s)) ~ttl) rows;
        Ok ()
    | Find k -> (
        match C.find c ~key:(key k) ~ty:(key_ty k) with
        | Some v -> fresh_value k v
        | None -> Ok ())
    | Through (k, f) -> (
        let failed_at = ref nan in
        let fetch () =
          let since = Sim.Engine.time () in
          let r = cache_fetch c k f () in
          Option.iter
            (fun (s, ttl) -> record ~since k (Pos (value k s)) ~ttl)
            f.fill;
          failed_at := Sim.Engine.time ();
          r
        in
        match C.through c ~key:(key k) ~ty:(key_ty k) ~fetch with
        | C.Hit v -> fresh_value k v
        | C.Negative_hit -> check "negative read past the TTL" (fresh k (fun w -> w.what = Neg))
        | C.Stale_hit v ->
            (* Served only after the fetch failed, from the newest
               write, positive, expired no later than the failure and
               inside the budget then. *)
            check "stale read outside the budget, or of a negative"
              (match newest k with
              | Some w ->
                  serves v w && (not f.ok) && w.lo <= !failed_at
                  && !failed_at <= w.hi +. cfg.budget
              | None -> false)
        | C.Fetched () | C.Failed () -> Ok ())
    | Find_addr k -> (
        match C.find_addr c ~key:(key k) with
        | Some ip -> fresh_value k (Wire.Value.Uint ip)
        | None -> Ok ())
    | Probe k -> (
        match C.probe c ~key:(key k) with
        | Some C.Fresh -> check "probe past the TTL" (fresh k (fun w -> w.what <> Neg))
        | Some C.Negative -> check "negative probe past the TTL" (fresh k (fun w -> w.what = Neg))
        | Some (C.Stale | C.Dead) | None -> Ok ())
    | Remove k ->
        ignore (C.remove c ~key:(key k));
        Hashtbl.remove writes k;
        Ok ()
    | Flush ->
        C.flush c;
        Hashtbl.reset writes;
        Ok ()
    | Advance d ->
        Sim.Engine.sleep d;
        Ok ()
  in
  match cfg.max_entries with
  | None -> Ok ()
  | Some max ->
      let* () = check "size past the bound" (C.size c <= max) in
      check "pinned past 3/4 of the bound" (C.pinned c <= Stdlib.max 1 (max * 3 / 4))

let serving_rules_hold =
  QCheck.Test.make ~name:"serves nothing past its TTL or budget" ~count:400 arb_case
    (fun (cfg, ops) ->
      let c = new_cache cfg and writes = Hashtbl.create 8 in
      run_ops ops (invariant_step cfg c writes))

(* --- admission in a bounded cache --- *)

let str s = Wire.Value.Str s
let ty = Wire.Idl.T_string

let full_cache_evicts_the_dead_first () =
  let w = make_world ~hosts:1 () in
  in_sim w (fun () ->
      let c = C.create ~mode:C.Demarshalled ~max_entries:2 () in
      C.insert c ~key:"live" ~ty (str "hour");
      C.insert c ~key:"dead" ~ty ~ttl_ms:1.0 (str "ms");
      Sim.Engine.sleep 11.0;
      C.insert c ~key:"new" ~ty (str "new");
      check_bool "the expired entry made the room" true (C.probe c ~key:"dead" = None);
      check_bool "the older live entry stays" true (C.find c ~key:"live" ~ty = Some (str "hour")))

let dead_pinned_entries_give_back_the_quota () =
  let w = make_world ~hosts:1 () in
  in_sim w (fun () ->
      let c = C.create ~mode:C.Demarshalled ~max_entries:4 () in
      check_int "quota of 3 filled" 3
        (C.preload c (List.map (fun k -> (k, ty, 1.0, str k)) [ "a"; "b"; "c" ]));
      Sim.Engine.sleep 10.0;
      check_int "a later preload is admitted" 1 (C.preload c [ ("d", ty, 60_000.0, str "d") ]);
      check_int "only the live row is pinned" 1 (C.pinned c))

let skipped_row_leaves_no_older_value () =
  let w = make_world ~hosts:1 () in
  in_sim w (fun () ->
      let c = C.create ~mode:C.Demarshalled ~max_entries:4 () in
      ignore (C.preload c (List.map (fun k -> (k, ty, 3_600_000.0, str k)) [ "a"; "b"; "c" ]));
      C.insert c ~key:"k" ~ty (str "old");
      check_int "the quota skips the newer row" 0 (C.preload c [ ("k", ty, 3_600_000.0, str "new") ]);
      check_bool "the older value is not served" true (C.find c ~key:"k" ~ty = None))

let suite =
  [
    qtest agrees_with_model;
    qtest serving_rules_hold;
    Alcotest.test_case "a full cache evicts the dead first" `Quick full_cache_evicts_the_dead_first;
    Alcotest.test_case "dead pinned entries free the quota" `Quick
      dead_pinned_entries_give_back_the_quota;
    Alcotest.test_case "a skipped row leaves no older value" `Quick
      skipped_row_leaves_no_older_value;
  ]
