type time = float

exception Process_failure of string * exn

(* A timed event. [run] is mutable so that a timeout can be cancelled
   in place. Its deadline and seq live beside it in the heap. *)
type event = { mutable run : unit -> unit }

(* The [run] of a timeout that has decided its wait: the wait got its
   answer first (the event stays queued but never runs), or the timeout
   itself already ran. Recognised by physical equality. *)
let cancelled () = ()

(* What a free slot of the heap or the ring holds, so that no slot keeps
   a popped or dropped event reachable. Never queued. *)
let vacant = { run = ignore }

(* Cancelled events are dropped in one pass once at least this many are
   queued and they are more than half of the heap. *)
let compact_min = 32

(* The queue has two parts, and an event runs in (deadline, seq) order
   across both. Events with a positive delay, and every timeout, go to a
   binary min-heap on (deadline, seq) held in parallel arrays, so that a
   comparison reads an unboxed float and an int in place. The other
   events have a zero delay and cannot be cancelled (spawns, wakes,
   answered waits, zero-delay sleeps and [at]s). They go to a FIFO ring:
   all of them are due at the current instant, in seq order, because
   a heap event later than now runs only once the ring is empty. *)
type t = {
  mutable now : time;
  mutable seq : int;
  mutable deadlines : Float.Array.t;
  mutable seqs : int array;
  mutable cells : event array;
  mutable size : int;  (* events in the heap *)
  mutable ring : (unit -> unit) array;  (* capacity a power of two *)
  mutable ring_seqs : int array;
  mutable head : int;
  mutable count : int;  (* events in the ring *)
  mutable executed : int;
  mutable dead : int;  (* cancelled events still in the heap *)
  mutable dead_horizon : time;  (* latest deadline of a cancelled event dropped *)
  mutable failure : (string * exn) option;
  mutable next_pid : int;
}

let create () =
  {
    now = 0.0;
    seq = 0;
    deadlines = Float.Array.create 0;
    seqs = [||];
    cells = [||];
    size = 0;
    ring = [||];
    ring_seqs = [||];
    head = 0;
    count = 0;
    executed = 0;
    dead = 0;
    dead_horizon = 0.0;
    failure = None;
    next_pid = 0;
  }

let now t = t.now
let events_executed t = t.executed
let pending t = t.size + t.count

(* --- The heap. Sifts move a hole and write each entry once. --- *)

(* Whether heap entry [i] comes before entry [j]. *)
let[@inline] before t i j =
  let di = Float.Array.unsafe_get t.deadlines i
  and dj = Float.Array.unsafe_get t.deadlines j in
  di < dj || (di = dj && Array.unsafe_get t.seqs i < Array.unsafe_get t.seqs j)

let[@inline] move t ~src ~dst =
  Float.Array.unsafe_set t.deadlines dst (Float.Array.unsafe_get t.deadlines src);
  Array.unsafe_set t.seqs dst (Array.unsafe_get t.seqs src);
  Array.unsafe_set t.cells dst (Array.unsafe_get t.cells src)

(* Moves entry [i] down until no child of its slot comes before it. *)
let sift_down t i =
  let d = Float.Array.unsafe_get t.deadlines i
  and s = Array.unsafe_get t.seqs i
  and ev = Array.unsafe_get t.cells i in
  let hole = ref i and continue = ref true in
  while !continue do
    let l = (2 * !hole) + 1 in
    if l >= t.size then continue := false
    else begin
      let c = if l + 1 < t.size && before t (l + 1) l then l + 1 else l in
      let dc = Float.Array.unsafe_get t.deadlines c in
      if dc < d || (dc = d && Array.unsafe_get t.seqs c < s) then begin
        move t ~src:c ~dst:!hole;
        hole := c
      end
      else continue := false
    end
  done;
  Float.Array.unsafe_set t.deadlines !hole d;
  Array.unsafe_set t.seqs !hole s;
  Array.unsafe_set t.cells !hole ev

let grow_heap t =
  let cap = max 16 (2 * t.size) in
  let deadlines = Float.Array.create cap and seqs = Array.make cap 0 in
  let cells = Array.make cap vacant in
  Float.Array.blit t.deadlines 0 deadlines 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.cells 0 cells 0 t.size;
  t.deadlines <- deadlines;
  t.seqs <- seqs;
  t.cells <- cells

(* Draws the next seq number: events at one instant run in the order
   they were made. *)
let next_seq t =
  t.seq <- t.seq + 1;
  t.seq

(* Queues [ev] in the heap, due [delay] ms from now. *)
let push_timed t delay ev =
  if delay < 0.0 then invalid_arg "Engine: negative delay";
  let s = next_seq t in
  let d = t.now +. delay in
  if t.size = Array.length t.cells then grow_heap t;
  let hole = ref t.size and continue = ref true in
  t.size <- t.size + 1;
  while !continue && !hole > 0 do
    let p = (!hole - 1) / 2 in
    let dp = Float.Array.unsafe_get t.deadlines p in
    if d < dp || (d = dp && s < Array.unsafe_get t.seqs p) then begin
      move t ~src:p ~dst:!hole;
      hole := p
    end
    else continue := false
  done;
  Float.Array.unsafe_set t.deadlines !hole d;
  Array.unsafe_set t.seqs !hole s;
  Array.unsafe_set t.cells !hole ev

(* Removes the root: the last entry takes its slot and sinks. *)
let pop_root t =
  let ev = t.cells.(0) in
  let last = t.size - 1 in
  t.size <- last;
  move t ~src:last ~dst:0;
  t.cells.(last) <- vacant;
  if last > 0 then sift_down t 0;
  ev

(* Drops every cancelled event in one pass, then restores heap order. *)
let compact t =
  let kept = ref 0 in
  for i = 0 to t.size - 1 do
    if t.cells.(i).run == cancelled then begin
      let d = Float.Array.get t.deadlines i in
      if d > t.dead_horizon then t.dead_horizon <- d
    end
    else begin
      move t ~src:i ~dst:!kept;
      incr kept
    end
  done;
  Array.fill t.cells !kept (t.size - !kept) vacant;
  t.size <- !kept;
  t.dead <- 0;
  for i = (t.size / 2) - 1 downto 0 do
    sift_down t i
  done

(* --- The ring --- *)

let grow_ring t =
  let cap = Array.length t.ring in
  let cap' = max 16 (2 * cap) in
  let ring = Array.make cap' ignore and ring_seqs = Array.make cap' 0 in
  for i = 0 to t.count - 1 do
    let j = (t.head + i) land (cap - 1) in
    ring.(i) <- t.ring.(j);
    ring_seqs.(i) <- t.ring_seqs.(j)
  done;
  t.ring <- ring;
  t.ring_seqs <- ring_seqs;
  t.head <- 0

(* Queues [f] at the current instant. *)
let push_now t f =
  let s = next_seq t in
  if t.count = Array.length t.ring then grow_ring t;
  let i = (t.head + t.count) land (Array.length t.ring - 1) in
  t.ring.(i) <- f;
  t.ring_seqs.(i) <- s;
  t.count <- t.count + 1

let pop_now t =
  let f = t.ring.(t.head) in
  t.ring.(t.head) <- ignore;
  t.head <- (t.head + 1) land (Array.length t.ring - 1);
  t.count <- t.count - 1;
  f

let schedule t delay f = if delay = 0.0 then push_now t f else push_timed t delay { run = f }

let cancel t timer =
  timer.run <- cancelled;
  t.dead <- t.dead + 1;
  if t.dead >= compact_min && 2 * t.dead > t.size then compact t

(* A process as the ambient reads see it: its engine and pid. *)
type proc = { engine : t; pid : int }

(* The process whose code is running: [None] in top-level code and in
   [at] callbacks. *)
let running : proc option ref = ref None

(* Runs [resume a b], which starts or resumes the fiber of process
   [self], until the fiber suspends, returns or raises; then puts back
   what was running before: another engine's process, when this engine
   runs inside one. *)
let as_running self resume a b =
  let prev = !running in
  running := self;
  match resume a b with
  | () -> running := prev
  | exception e ->
      running := prev;
      raise e

let continue_as self k v = as_running self Effect.Deep.continue k v

(* Arms the timeout of a wait on [k]: unless [answer] cancels it first,
   it resumes [k] with [None] [d] ms from now. *)
let arm_timeout t self d k =
  let timer = { run = cancelled } in
  timer.run <-
    (fun () ->
      timer.run <- cancelled;
      continue_as self k None);
  push_timed t d timer;
  timer

(* Answers a wait whose [timer] has not run: resumes [k] with [Some v]
   at the current instant and cancels the timer. *)
let answer t self timer k v =
  cancel t timer;
  push_now t (fun () -> continue_as self k (Some v))

(* A write-once cell. Waiters registered while empty are invoked (in
   registration order) at fill time; each waiter schedules its blocked
   process for resumption at the fill instant. *)
type 'a ivar = { mutable value : 'a option; mutable waiters : ('a -> unit) list }

(* A blocked mailbox receiver. A [recv_timeout] reader whose [timer] has
   run must not swallow a later message; a plain [recv] has [untimed]. *)
type 'a reader = { timer : event; deliver : 'a -> unit }

let untimed = { run = ignore }

type 'a mailbox = { q : 'a Queue.t; readers : 'a reader Queue.t }

type _ Effect.t +=
  | Sleep : time -> unit Effect.t
  | Await : 'a ivar -> 'a Effect.t
  | Await_timeout : 'a ivar * time -> 'a option Effect.t
  | Recv : 'a mailbox -> 'a Effect.t
  | Recv_timeout : 'a mailbox * time -> 'a option Effect.t

let rec pop_reader readers =
  match Queue.take_opt readers with
  | None -> None
  | Some r -> if r.timer.run == cancelled then pop_reader readers else Some r

(* Runs process [f] as [self] under the engine's handler: each effect
   it performs blocks it until the event that resumes it. *)
let exec_process t name self f =
  let open Effect.Deep in
  as_running self (match_with f) ()
    {
      retc = (fun () -> ());
      exnc =
        (fun e -> if t.failure = None then t.failure <- Some (name, e));
      effc =
        (fun (type c) (eff : c Effect.t) ->
          match eff with
          | Sleep d ->
              Some
                (fun (k : (c, unit) continuation) ->
                  schedule t d (fun () -> continue_as self k ()))
          | Await iv ->
              Some
                (fun k ->
                  match iv.value with
                  | Some v -> continue k v
                  | None ->
                      let wake v = push_now t (fun () -> continue_as self k v) in
                      iv.waiters <- wake :: iv.waiters)
          | Await_timeout (iv, d) ->
              Some
                (fun k ->
                  match iv.value with
                  | Some v -> continue k (Some v)
                  | None ->
                      let timer = arm_timeout t self d k in
                      let wake v = if timer.run != cancelled then answer t self timer k v in
                      iv.waiters <- wake :: iv.waiters)
          | Recv mb ->
              Some
                (fun k ->
                  match Queue.take_opt mb.q with
                  | Some v -> continue k v
                  | None ->
                      let deliver v = push_now t (fun () -> continue_as self k v) in
                      Queue.push { timer = untimed; deliver } mb.readers)
          | Recv_timeout (mb, d) ->
              Some
                (fun k ->
                  match Queue.take_opt mb.q with
                  | Some v -> continue k (Some v)
                  | None ->
                      let timer = arm_timeout t self d k in
                      Queue.push { timer; deliver = answer t self timer k } mb.readers)
          | _ -> None);
    }

(* Pids are allocated in spawn order — a deterministic function of the
   program, so anything keyed by pid (per-fiber span stacks, query
   records) replays identically across runs. *)
let spawn t ?(name = "anon") f =
  t.next_pid <- t.next_pid + 1;
  let self = Some { engine = t; pid = t.next_pid } in
  push_now t (fun () -> exec_process t name self f)

let at t delay f = schedule t delay f

let check_failure t =
  match t.failure with
  | Some (name, e) ->
      t.failure <- None;
      raise (Process_failure (name, e))
  | None -> ()

(* Whether the heap's root runs before the ring's head, which is due
   now with seq [ring_seqs.(head)]: an earlier deadline, or the same
   instant and a smaller seq. *)
let[@inline] root_first t =
  let d = Float.Array.unsafe_get t.deadlines 0 in
  d < t.now || (d = t.now && Array.unsafe_get t.seqs 0 < t.ring_seqs.(t.head))

(* A cancelled timeout is dropped without running: it moves neither the
   clock nor the count. *)
let step t =
  if t.count > 0 && (t.size = 0 || not (root_first t)) then begin
    let f = pop_now t in
    t.executed <- t.executed + 1;
    f ();
    check_failure t
  end
  else begin
    let d = Float.Array.get t.deadlines 0 in
    let ev = pop_root t in
    if ev.run == cancelled then begin
      t.dead <- t.dead - 1;
      if d > t.dead_horizon then t.dead_horizon <- d
    end
    else begin
      t.now <- d;
      t.executed <- t.executed + 1;
      ev.run ();
      check_failure t
    end
  end

let run t =
  while t.size + t.count > 0 do
    step t
  done;
  (* End where firing the cancelled timeouts would have left the clock:
     later phases on this engine start from it. *)
  if t.now < t.dead_horizon then t.now <- t.dead_horizon

let run_until t deadline =
  while
    (t.count > 0 && t.now <= deadline)
    || (t.size > 0 && Float.Array.get t.deadlines 0 <= deadline)
  do
    step t
  done;
  if t.now < deadline then t.now <- deadline

let time () = match !running with Some p -> p.engine.now | None -> 0.0
let self_pid () = match !running with Some p -> p.pid | None -> 0

let spawn_child ?name f =
  match !running with
  | Some p -> spawn p.engine ?name f
  | None -> invalid_arg "Engine.spawn_child: no process is running"

let sleep d = Effect.perform (Sleep d)
let charge d = if d > 0.0 && Option.is_some !running then sleep d

module Ivar = struct
  type 'a t_ = 'a ivar
  type nonrec 'a ivar = 'a t_

  let create () = { value = None; waiters = [] }

  let fill_if_empty iv v =
    match iv.value with
    | Some _ -> false
    | None ->
        iv.value <- Some v;
        let ws = List.rev iv.waiters in
        iv.waiters <- [];
        List.iter (fun w -> w v) ws;
        true

  let fill iv v =
    if not (fill_if_empty iv v) then invalid_arg "Ivar.fill: already full"

  let is_full iv = iv.value <> None
  let peek iv = iv.value
  let read iv = Effect.perform (Await iv)
  let read_timeout iv d = Effect.perform (Await_timeout (iv, d))
end

module Mailbox = struct
  type 'a t_ = 'a mailbox
  type nonrec 'a mailbox = 'a t_

  let create () = { q = Queue.create (); readers = Queue.create () }

  let send mb v =
    match pop_reader mb.readers with
    | Some r -> r.deliver v
    | None -> Queue.push v mb.q

  let recv mb = Effect.perform (Recv mb)
  let recv_timeout mb d = Effect.perform (Recv_timeout (mb, d))
  let try_recv mb = Queue.take_opt mb.q
  let length mb = Queue.length mb.q
end
