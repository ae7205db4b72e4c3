type outcome = Hit | Miss | Coalesced | Negative | Stale | Failover | Failed

(* Upgrades only: a query starts as a cache hit and is reclassified as
   evidence of worse accumulates (a remote round trip, a stale serve, a
   failover...). The numeric rank orders "worse". *)
let rank = function
  | Hit -> 0
  | Miss -> 1
  | Coalesced -> 2
  | Negative -> 3
  | Stale -> 4
  | Failover -> 5
  | Failed -> 6

let outcome_to_string = function
  | Hit -> "hit"
  | Miss -> "miss"
  | Coalesced -> "coalesced"
  | Negative -> "negative"
  | Stale -> "stale"
  | Failover -> "failover"
  | Failed -> "failed"

let outcome_of_string = function
  | "hit" -> Some Hit
  | "miss" -> Some Miss
  | "coalesced" -> Some Coalesced
  | "negative" -> Some Negative
  | "stale" -> Some Stale
  | "failover" -> Some Failover
  | "failed" -> Some Failed
  | _ -> None

type record = {
  qid : int;
  name : string;
  query_class : string;
  pid : int;
  mutable trace : int; (* 0 when tracing was off *)
  start_ms : float;
  mutable end_ms : float;
  mutable outcome : outcome;
  mutable hops : (string * float) list; (* newest first internally *)
  mutable bytes : int;
  mutable servers : string list; (* newest first internally, deduped *)
  mutable linked_trace : int; (* coalesced follower -> leader's trace *)
  mutable error : string option;
}

let max_retained = 2048

type state = {
  mutable on : bool;
  mutable next_qid : int;
  ring : record Queue.t; (* oldest first, bounded *)
  mutable dropped_count : int;
  active : (int, record list) Hashtbl.t; (* per-fiber, innermost first *)
}

let st =
  {
    on = false;
    next_qid = 1;
    ring = Queue.create ();
    dropped_count = 0;
    active = Hashtbl.create 16;
  }

let enable () = st.on <- true
let disable () = st.on <- false
let enabled () = st.on

let clear () =
  st.next_qid <- 1;
  Queue.clear st.ring;
  st.dropped_count <- 0;
  Hashtbl.reset st.active

let active_stack pid = Option.value (Hashtbl.find_opt st.active pid) ~default:[]

let set_active pid = function
  | [] -> Hashtbl.remove st.active pid
  | stack -> Hashtbl.replace st.active pid stack

let current () =
  if not st.on then None
  else match active_stack (Sim.Engine.self_pid ()) with [] -> None | r :: _ -> Some r

let retire r =
  Queue.push r st.ring;
  if Queue.length st.ring > max_retained then begin
    ignore (Queue.pop st.ring);
    st.dropped_count <- st.dropped_count + 1
  end

let with_query ~name ~query_class f =
  if not st.on then f ()
  else begin
    let pid = Sim.Engine.self_pid () in
    let r =
      {
        qid = st.next_qid;
        name;
        query_class;
        pid;
        trace = Span.current_trace ();
        start_ms = Sim.Engine.time ();
        end_ms = nan;
        outcome = Hit;
        hops = [];
        bytes = 0;
        servers = [];
        linked_trace = 0;
        error = None;
      }
    in
    st.next_qid <- st.next_qid + 1;
    set_active pid (r :: active_stack pid);
    Fun.protect
      ~finally:(fun () ->
        r.end_ms <- Sim.Engine.time ();
        (match active_stack pid with
        | top :: rest when top == r -> set_active pid rest
        | stack -> set_active pid (List.filter (fun x -> x != r) stack));
        retire r)
      f
  end

(* Annotations from the inner layers: each applies to the calling
   fiber's innermost in-flight record, and is a no-op when the
   recorder is off or no query is open. *)

let note_outcome o =
  match current () with
  | Some r when rank o > rank r.outcome -> r.outcome <- o
  | _ -> ()

let note_hop label ms =
  match current () with Some r -> r.hops <- (label, ms) :: r.hops | None -> ()

let add_bytes n =
  match current () with Some r -> r.bytes <- r.bytes + n | None -> ()

let note_server s =
  match current () with
  | Some r -> if not (List.mem s r.servers) then r.servers <- s :: r.servers
  | None -> ()

let note_trace trace =
  match current () with
  | Some r when r.trace = 0 -> r.trace <- trace
  | _ -> ()

let note_link trace =
  match current () with
  | Some r ->
      r.linked_trace <- trace;
      if rank Coalesced > rank r.outcome then r.outcome <- Coalesced
  | None -> ()

let note_error msg =
  match current () with
  | Some r ->
      r.error <- Some msg;
      r.outcome <- Failed
  | None -> ()

let records () = List.of_seq (Queue.to_seq st.ring)
let dropped () = st.dropped_count
let duration_ms r = r.end_ms -. r.start_ms
let hops r = List.rev r.hops
let servers r = List.rev r.servers

let record_json r =
  Json.Obj
    [
      ("qid", Json.Num (float_of_int r.qid));
      ("name", Json.Str r.name);
      ("query_class", Json.Str r.query_class);
      ("pid", Json.Num (float_of_int r.pid));
      ( "trace",
        if r.trace = 0 then Json.Null else Json.Num (float_of_int r.trace) );
      ( "linked_trace",
        if r.linked_trace = 0 then Json.Null
        else Json.Num (float_of_int r.linked_trace) );
      ("outcome", Json.Str (outcome_to_string r.outcome));
      ("start_ms", Json.Num r.start_ms);
      ("end_ms", Json.Num r.end_ms);
      ("dur_ms", Json.Num (duration_ms r));
      ( "hops",
        Json.List
          (List.map
             (fun (label, ms) ->
               Json.Obj [ ("hop", Json.Str label); ("ms", Json.Num ms) ])
             (hops r)) );
      ("bytes", Json.Num (float_of_int r.bytes));
      ("servers", Json.List (List.map (fun s -> Json.Str s) (servers r)));
      ( "error",
        match r.error with None -> Json.Null | Some m -> Json.Str m );
    ]

let to_json () = Json.List (List.map record_json (records ()))

let json_lines () =
  records () |> List.map (fun r -> Json.to_string (record_json r)) |> String.concat "\n"

(* {1 Filters (for the CLI and tests)} *)

let slowest n rs =
  let by_dur a b = compare (duration_ms b) (duration_ms a) in
  let sorted = List.stable_sort by_dur rs in
  List.filteri (fun i _ -> i < n) sorted

let by_outcome o rs = List.filter (fun r -> r.outcome = o) rs

let by_context ctx rs =
  List.filter
    (fun r ->
      match String.index_opt r.name '!' with
      | Some i -> String.sub r.name 0 i = ctx
      | None -> r.name = ctx)
    rs
