type outcome = Delivered of Hns.Hns_name.t | Bounced of string

let m_delivered = Obs.Metrics.counter "services.mta.delivered"
let m_attempts = Obs.Metrics.counter "services.mta.attempts"

type item = {
  recipient : Hns.Hns_name.t;
  subject : string;
  body : string;
  mutable tries : int;
}

type t = {
  mail : Mail.t;
  retry_interval_ms : float;
  max_attempts : int;
  queue : item Queue.t;
  wakeup : unit Sim.Engine.Mailbox.mailbox;
  mutable running : bool;
  delivered : Obs.Metrics.counter;
  attempts : Obs.Metrics.counter;
  mutable bounce_log : (Hns.Hns_name.t * string) list; (* newest first *)
}

let create hns ~from ?(retry_interval_ms = 30_000.0) ?(max_attempts = 8) () =
  {
    mail = Mail.create hns ~from;
    retry_interval_ms;
    max_attempts;
    queue = Queue.create ();
    wakeup = Sim.Engine.Mailbox.create ();
    running = false;
    delivered = Obs.Metrics.owned m_delivered;
    attempts = Obs.Metrics.owned m_attempts;
    bounce_log = [];
  }

let submit t ~recipient ~subject ~body =
  Queue.push { recipient; subject; body; tries = 0 } t.queue;
  Sim.Engine.Mailbox.send t.wakeup ()

let queue_length t = Queue.length t.queue
let bounces t = List.rev t.bounce_log
let metrics t = Obs.Metrics.scope [ t.delivered; t.attempts ]

let bounce t item reason = t.bounce_log <- (item.recipient, reason) :: t.bounce_log

(* Attempt everything currently queued once; requeue transient
   failures that still have attempts left. *)
let run_queue_once t =
  let pending = Queue.length t.queue in
  for _ = 1 to pending do
    let item = Queue.pop t.queue in
    item.tries <- item.tries + 1;
    Obs.Metrics.incr t.attempts;
    match
      Mail.send t.mail ~recipient:item.recipient ~subject:item.subject
        ~body:item.body
    with
    | Ok _site -> Obs.Metrics.incr t.delivered
    | Error (Access.Service_error reason) ->
        (* the site answered: the user does not exist there *)
        bounce t item reason
    | Error (Access.Name_error (Hns.Errors.Name_not_found _)) ->
        bounce t item "no mailbox record"
    | Error e ->
        (* transient: site or name machinery unreachable *)
        if item.tries >= t.max_attempts then
          bounce t item
            (Printf.sprintf "giving up after %d attempts: %s" item.tries
               (Format.asprintf "%a" Access.pp_error e))
        else Queue.push item t.queue
  done

let start t =
  if t.running then invalid_arg "Mta.start: already running";
  t.running <- true;
  Sim.Engine.spawn_child ~name:"mta" (fun () ->
      while t.running do
        if Queue.is_empty t.queue then
          (* idle: wait for a submission (or a stop poke) *)
          ignore (Sim.Engine.Mailbox.recv t.wakeup)
        else begin
          run_queue_once t;
          if not (Queue.is_empty t.queue) then Sim.Engine.sleep t.retry_interval_ms
        end
      done)

let stop t =
  t.running <- false;
  (* poke the runner out of its idle wait *)
  Sim.Engine.Mailbox.send t.wakeup ()
