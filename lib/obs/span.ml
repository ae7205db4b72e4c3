type id = int

type span = {
  id : id;
  trace : id;
  parent : id option;
  remote : bool;
  pid : int;
  name : string;
  mutable attrs : (string * string) list;
  start_ms : float;
  mutable end_ms : float;
}

let max_retained = 8192

type state = {
  mutable on : bool;
  mutable next_id : int;
  stacks : (int, span list) Hashtbl.t; (* per-fiber, innermost first *)
  mutable closed : span list; (* newest first *)
  mutable closed_count : int;
  mutable dropped_count : int;
}

let st =
  {
    on = false;
    next_id = 1;
    stacks = Hashtbl.create 16;
    closed = [];
    closed_count = 0;
    dropped_count = 0;
  }

let enable () = st.on <- true
let disable () = st.on <- false
let enabled () = st.on

(* Spans are stacked per fiber: the cooperative scheduler interleaves
   processes at await points, so one global stack would nest a server's
   spans under whatever client happens to be blocked. Pid 0 is
   everything outside the simulation (tests, the CLI prologue). *)
let stack_of pid = Option.value (Hashtbl.find_opt st.stacks pid) ~default:[]

let set_stack pid = function
  | [] -> Hashtbl.remove st.stacks pid
  | stack -> Hashtbl.replace st.stacks pid stack

let fresh_id () =
  let id = st.next_id in
  st.next_id <- st.next_id + 1;
  id

let push_span ~trace ~parent ~remote name =
  let pid = Sim.Engine.self_pid () in
  let stack = stack_of pid in
  let id = fresh_id () in
  let trace = if trace = 0 then id else trace in
  let s =
    {
      id;
      trace;
      parent;
      remote;
      pid;
      name;
      attrs = [];
      start_ms = Sim.Engine.time ();
      end_ms = nan;
    }
  in
  set_stack pid (s :: stack);
  id

let open_span name =
  if not st.on then 0
  else begin
    let pid = Sim.Engine.self_pid () in
    match stack_of pid with
    | [] -> push_span ~trace:0 ~parent:None ~remote:false name
    | parent :: _ ->
        push_span ~trace:parent.trace ~parent:(Some parent.id) ~remote:false name
  end

(* A span adopting a parent from another process (arrived in an RPC
   header): same trace, remote parent link. With no wire context the
   span roots a fresh trace in this fiber. *)
let open_remote_span ~trace ~parent name =
  if not st.on then 0
  else if trace = 0 || parent = 0 then open_span name
  else push_span ~trace ~parent:(Some parent) ~remote:true name

let retire s =
  st.closed <- s :: st.closed;
  st.closed_count <- st.closed_count + 1;
  if st.closed_count > max_retained then begin
    (* Drop the oldest retained span. Linear, but only on overflow of
       an already-large buffer. *)
    (match List.rev st.closed with
    | [] -> ()
    | _oldest :: rest -> st.closed <- List.rev rest);
    st.closed_count <- st.closed_count - 1;
    st.dropped_count <- st.dropped_count + 1
  end

(* Deliberately ignores the enabled flag: a span opened while tracing
   was on must still be closed if tracing gets disabled mid-scope.
   Closing a non-innermost span also closes everything opened inside
   it — within the same fiber only. *)
let close_span id =
  if id <> 0 then begin
    let pid = Sim.Engine.self_pid () in
    let stack = stack_of pid in
    if List.exists (fun s -> s.id = id) stack then begin
      let t = Sim.Engine.time () in
      let rec pop = function
        | [] -> []
        | s :: rest ->
            s.end_ms <- t;
            retire s;
            if s.id = id then rest else pop rest
      in
      set_stack pid (pop stack)
    end
  end

(* [attrs] is a thunk so the disabled path never builds the attribute
   list: one branch, then straight into [f]. *)
let with_span ?attrs name f =
  if not st.on then f ()
  else begin
    let id = open_span name in
    (match attrs with
    | None -> ()
    | Some mk -> (
        match stack_of (Sim.Engine.self_pid ()) with
        | s :: _ when s.id = id -> s.attrs <- mk ()
        | _ -> ()));
    Fun.protect ~finally:(fun () -> close_span id) f
  end

let add_attr key value =
  if st.on then
    match stack_of (Sim.Engine.self_pid ()) with
    | [] -> ()
    | s :: _ -> s.attrs <- s.attrs @ [ (key, value) ]

(* The innermost open span of the calling fiber, as wire-able context.
   This is what an RPC client stamps into its call header. *)
let context () =
  if not st.on then None
  else
    match stack_of (Sim.Engine.self_pid ()) with
    | [] -> None
    | s :: _ -> Some (s.trace, s.id)

let current_trace () = match context () with None -> 0 | Some (t, _) -> t

let finished () = List.rev st.closed
let open_stack () = List.rev_map (fun s -> (s.id, s.name)) (stack_of (Sim.Engine.self_pid ()))
let dropped () = st.dropped_count
let duration_ms s = s.end_ms -. s.start_ms

(* Also rewinds the id counter: a cleared tracer replays identically,
   which the same-seed determinism regressions rely on. *)
let clear () =
  Hashtbl.reset st.stacks;
  st.next_id <- 1;
  st.closed <- [];
  st.closed_count <- 0;
  st.dropped_count <- 0

let pp_attrs ppf attrs =
  List.iter (fun (k, v) -> Format.fprintf ppf " %s=%s" k v) attrs

let pp_tree ppf () =
  let spans = finished () in
  let known = List.map (fun s -> s.id) spans in
  let children parent =
    List.filter (fun s -> s.parent = Some parent) spans
  in
  let roots =
    List.filter
      (fun s ->
        match s.parent with None -> true | Some p -> not (List.mem p known))
      spans
  in
  let rec render depth s =
    Format.fprintf ppf "%s%s%s (%.1f ms, pid %d)%a@."
      (String.make (2 * depth) ' ')
      (if s.remote then "~> " else "")
      s.name (duration_ms s) s.pid pp_attrs s.attrs;
    List.iter (render (depth + 1)) (children s.id)
  in
  List.iter (render 0) roots;
  if st.dropped_count > 0 then
    Format.fprintf ppf "(%d older spans dropped)@." st.dropped_count

let to_json () =
  Json.List
    (List.map
       (fun s ->
         Json.Obj
           [
             ("id", Json.Num (float_of_int s.id));
             ("trace", Json.Num (float_of_int s.trace));
             ( "parent",
               match s.parent with
               | None -> Json.Null
               | Some p -> Json.Num (float_of_int p) );
             ("remote", Json.Bool s.remote);
             ("pid", Json.Num (float_of_int s.pid));
             ("name", Json.Str s.name);
             ("start_ms", Json.Num s.start_ms);
             ("end_ms", Json.Num s.end_ms);
             ("attrs", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) s.attrs));
           ])
       (finished ()))
