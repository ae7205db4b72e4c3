(* Reference model of the simulation engine: Sim.Engine before it
   cancelled answered timeouts, kept so properties can hold the
   production engine to it. A timed wait that gets its answer leaves its
   timer queued until the deadline, where it runs as a no-op: it moves
   the clock and counts as an executed event. *)

module Heap = Sim.Heap

type time = float

exception Process_failure of string * exn

type event = { at_ : time; seq : int; run : unit -> unit }

let leq a b = a.at_ < b.at_ || (a.at_ = b.at_ && a.seq <= b.seq)

type t = {
  mutable now : time;
  mutable seq : int;
  queue : event Heap.t;
  mutable executed : int;
  mutable failure : (string * exn) option;
  mutable next_pid : int;
}

let create () =
  {
    now = 0.0;
    seq = 0;
    queue = Heap.create ~leq;
    executed = 0;
    failure = None;
    next_pid = 0;
  }

let now t = t.now
let events_executed t = t.executed

let schedule t delay f =
  if delay < 0.0 then invalid_arg "Engine: negative delay";
  t.seq <- t.seq + 1;
  Heap.push t.queue { at_ = t.now +. delay; seq = t.seq; run = f }

(* A write-once cell. Waiters registered while empty are invoked (in
   registration order) at fill time; each waiter schedules its blocked
   process for resumption at the fill instant. *)
type 'a ivar = { mutable value : 'a option; mutable waiters : ('a -> unit) list }

(* A blocked mailbox receiver. [cancelled] supports recv_timeout: a
   timed-out receiver must not swallow a later message. *)
type 'a reader = { mutable cancelled : bool; deliver : 'a -> unit }

type 'a mailbox = { q : 'a Queue.t; readers : 'a reader Queue.t }

type _ Effect.t +=
  | Sleep : time -> unit Effect.t
  | Now : time Effect.t
  | Self_engine : t Effect.t
  | Self_name : string Effect.t
  | Self_pid : int Effect.t
  | Spawn_eff : string option * (unit -> unit) -> unit Effect.t
  | Await : 'a ivar -> 'a Effect.t
  | Await_timeout : 'a ivar * time -> 'a option Effect.t
  | Recv : 'a mailbox -> 'a Effect.t
  | Recv_timeout : 'a mailbox * time -> 'a option Effect.t

let rec pop_reader readers =
  match Queue.take_opt readers with
  | None -> None
  | Some r -> if r.cancelled then pop_reader readers else Some r

(* Pids are allocated in spawn order — a deterministic function of the
   program, so anything keyed by pid (per-fiber span stacks, query
   records) replays identically across runs. *)
let rec spawn t ?(name = "anon") f =
  t.next_pid <- t.next_pid + 1;
  let pid = t.next_pid in
  schedule t 0.0 (fun () -> exec_process t name pid f)

and exec_process : t -> string -> int -> (unit -> unit) -> unit =
 fun t name pid f ->
  let open Effect.Deep in
  match_with f ()
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
                  schedule t d (fun () -> continue k ()))
          | Now -> Some (fun k -> continue k t.now)
          | Self_engine -> Some (fun k -> continue k t)
          | Self_name -> Some (fun k -> continue k name)
          | Self_pid -> Some (fun k -> continue k pid)
          | Spawn_eff (n, g) ->
              Some
                (fun k ->
                  spawn t ?name:n g;
                  continue k ())
          | Await iv ->
              Some
                (fun k ->
                  match iv.value with
                  | Some v -> continue k v
                  | None ->
                      let wake v = schedule t 0.0 (fun () -> continue k v) in
                      iv.waiters <- wake :: iv.waiters)
          | Await_timeout (iv, d) ->
              Some
                (fun k ->
                  match iv.value with
                  | Some v -> continue k (Some v)
                  | None ->
                      let decided = ref false in
                      let wake v =
                        if not !decided then begin
                          decided := true;
                          schedule t 0.0 (fun () -> continue k (Some v))
                        end
                      in
                      iv.waiters <- wake :: iv.waiters;
                      schedule t d (fun () ->
                          if not !decided then begin
                            decided := true;
                            continue k None
                          end))
          | Recv mb ->
              Some
                (fun k ->
                  match Queue.take_opt mb.q with
                  | Some v -> continue k v
                  | None ->
                      let deliver v = schedule t 0.0 (fun () -> continue k v) in
                      Queue.push { cancelled = false; deliver } mb.readers)
          | Recv_timeout (mb, d) ->
              Some
                (fun k ->
                  match Queue.take_opt mb.q with
                  | Some v -> continue k (Some v)
                  | None ->
                      let r =
                        {
                          cancelled = false;
                          deliver =
                            (fun v -> schedule t 0.0 (fun () -> continue k (Some v)));
                        }
                      in
                      Queue.push r mb.readers;
                      schedule t d (fun () ->
                          if not r.cancelled then begin
                            r.cancelled <- true;
                            continue k None
                          end))
          | _ -> None);
    }

let at t delay f = schedule t delay f

let check_failure t =
  match t.failure with
  | Some (name, e) ->
      t.failure <- None;
      raise (Process_failure (name, e))
  | None -> ()

let run t =
  let rec loop () =
    if not (Heap.is_empty t.queue) then begin
      let ev = Heap.pop t.queue in
      t.now <- ev.at_;
      t.executed <- t.executed + 1;
      ev.run ();
      check_failure t;
      loop ()
    end
  in
  loop ()

let run_until t deadline =
  let rec loop () =
    if (not (Heap.is_empty t.queue)) && (Heap.peek t.queue).at_ <= deadline then begin
      let ev = Heap.pop t.queue in
      t.now <- ev.at_;
      t.executed <- t.executed + 1;
      ev.run ();
      check_failure t;
      loop ()
    end
  in
  loop ();
  if t.now < deadline then t.now <- deadline

let sleep d = Effect.perform (Sleep d)
let yield () = Effect.perform (Sleep 0.0)
let time () = Effect.perform Now
let spawn_child ?name f = Effect.perform (Spawn_eff (name, f))
let self_engine () = Effect.perform Self_engine
let self_name () = Effect.perform Self_name
let self_pid () = Effect.perform Self_pid

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
    | Some r ->
        r.cancelled <- true;
        r.deliver v
    | None -> Queue.push v mb.q

  let recv mb = Effect.perform (Recv mb)
  let recv_timeout mb d = Effect.perform (Recv_timeout (mb, d))
  let try_recv mb = Queue.take_opt mb.q
  let length mb = Queue.length mb.q
end
