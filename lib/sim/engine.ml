type time = float

exception Process_failure of string * exn

(* [run] is mutable so that a timeout can be cancelled in place. *)
type event = { at_ : time; seq : int; mutable run : unit -> unit }

let leq a b = a.at_ < b.at_ || (a.at_ = b.at_ && a.seq <= b.seq)

(* The [run] of a timeout that has decided its wait: the wait got its
   answer first (the event stays queued but never runs), or the timeout
   itself already ran. Recognised by physical equality. *)
let cancelled () = ()

(* Cancelled events are dropped in one pass once at least this many are
   queued and they are more than half of the queue. *)
let compact_min = 32

type t = {
  mutable now : time;
  mutable seq : int;
  queue : event Heap.t;
  mutable executed : int;
  mutable dead : int;  (* cancelled events still in [queue] *)
  mutable dead_horizon : time;  (* latest [at_] of any cancelled event *)
  mutable failure : (string * exn) option;
  mutable next_pid : int;
}

let create () =
  {
    now = 0.0;
    seq = 0;
    queue = Heap.create ~leq;
    executed = 0;
    dead = 0;
    dead_horizon = 0.0;
    failure = None;
    next_pid = 0;
  }

let now t = t.now
let events_executed t = t.executed
let pending t = Heap.length t.queue

(* Draws the next seq number: events at one instant run in the order
   they were made. *)
let event t delay run =
  if delay < 0.0 then invalid_arg "Engine: negative delay";
  t.seq <- t.seq + 1;
  { at_ = t.now +. delay; seq = t.seq; run }

let schedule t delay f = Heap.push t.queue (event t delay f)

let cancel t timer =
  timer.run <- cancelled;
  t.dead <- t.dead + 1;
  if timer.at_ > t.dead_horizon then t.dead_horizon <- timer.at_;
  if t.dead >= compact_min && 2 * t.dead > Heap.length t.queue then begin
    Heap.filter t.queue (fun ev -> ev.run != cancelled);
    t.dead <- 0
  end

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
  let timer = event t d cancelled in
  timer.run <-
    (fun () ->
      timer.run <- cancelled;
      continue_as self k None);
  Heap.push t.queue timer;
  timer

(* Answers a wait whose [timer] has not run: resumes [k] with [Some v]
   at the current instant and cancels the timer. *)
let answer t self timer k v =
  cancel t timer;
  schedule t 0.0 (fun () -> continue_as self k (Some v))

(* A write-once cell. Waiters registered while empty are invoked (in
   registration order) at fill time; each waiter schedules its blocked
   process for resumption at the fill instant. *)
type 'a ivar = { mutable value : 'a option; mutable waiters : ('a -> unit) list }

(* A blocked mailbox receiver. A [recv_timeout] reader whose [timer] has
   run must not swallow a later message; a plain [recv] has [untimed]. *)
type 'a reader = { timer : event; deliver : 'a -> unit }

let untimed = { at_ = infinity; seq = 0; run = ignore }

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
                      let wake v = schedule t 0.0 (fun () -> continue_as self k v) in
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
                      let deliver v = schedule t 0.0 (fun () -> continue_as self k v) in
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
  schedule t 0.0 (fun () -> exec_process t name self f)

let at t delay f = schedule t delay f

let check_failure t =
  match t.failure with
  | Some (name, e) ->
      t.failure <- None;
      raise (Process_failure (name, e))
  | None -> ()

(* A cancelled timeout is dropped without running: it moves neither the
   clock nor the count. *)
let step t =
  let ev = Heap.pop t.queue in
  if ev.run == cancelled then t.dead <- t.dead - 1
  else begin
    t.now <- ev.at_;
    t.executed <- t.executed + 1;
    ev.run ();
    check_failure t
  end

let run t =
  while not (Heap.is_empty t.queue) do
    step t
  done;
  (* End where firing the cancelled timeouts would have left the clock:
     later phases on this engine start from it. *)
  if t.now < t.dead_horizon then t.now <- t.dead_horizon

let run_until t deadline =
  while (not (Heap.is_empty t.queue)) && (Heap.peek t.queue).at_ <= deadline do
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
let yield () = Effect.perform (Sleep 0.0)
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
