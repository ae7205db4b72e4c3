(* Unit and property tests for the simulation substrate. *)

open Helpers

(* --- Heap --- *)

let heap_pop_order () =
  let h = Sim.Heap.create ~leq:(fun a b -> a <= b) in
  List.iter (Sim.Heap.push h) [ 5; 1; 4; 1; 3; 9; 2 ];
  check (Alcotest.list Alcotest.int) "sorted" [ 1; 1; 2; 3; 4; 5; 9 ]
    (Sim.Heap.to_sorted_list h)

let heap_empty () =
  let h = Sim.Heap.create ~leq:(fun (a : int) b -> a <= b) in
  check_bool "empty" true (Sim.Heap.is_empty h);
  (match Sim.Heap.pop h with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "pop on empty should raise");
  Sim.Heap.push h 7;
  check_int "peek" 7 (Sim.Heap.peek h);
  check_int "length" 1 (Sim.Heap.length h);
  Sim.Heap.clear h;
  check_bool "cleared" true (Sim.Heap.is_empty h)

(* Pushes and pops one boxed value, leaving only a weak pointer to it. *)
let[@inline never] push_pop h w =
  let x = ref 42 in
  Weak.set w 0 (Some x);
  Sim.Heap.push h x;
  ignore (Sim.Heap.pop h)

let heap_pop_releases () =
  let h = Sim.Heap.create ~leq:(fun (a : int ref) b -> !a <= !b) and w = Weak.create 1 in
  push_pop h w;
  Gc.full_major ();
  check_bool "popped element collected" false (Weak.check w 0);
  Sim.Heap.push h (ref 1);
  check_int "reusable after emptying" 1 !(Sim.Heap.pop h)

let heap_sorts_any_list =
  QCheck.Test.make ~name:"heap sorts like List.sort" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Sim.Heap.of_list ~leq:(fun a b -> a <= b) xs in
      Sim.Heap.to_sorted_list h = List.sort compare xs)

(* --- Rng --- *)

let rng_deterministic () =
  let a = Sim.Rng.create ~seed:42L and b = Sim.Rng.create ~seed:42L in
  for _ = 1 to 100 do
    check_bool "same stream" true (Sim.Rng.bits64 a = Sim.Rng.bits64 b)
  done

let rng_split_independent () =
  let a = Sim.Rng.create ~seed:42L in
  let b = Sim.Rng.split a in
  check_bool "split differs from parent" true (Sim.Rng.bits64 a <> Sim.Rng.bits64 b)

let rng_int_in_range =
  QCheck.Test.make ~name:"Rng.int stays in range" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, n) ->
      let rng = Sim.Rng.create ~seed:(Int64.of_int seed) in
      let v = Sim.Rng.int rng n in
      v >= 0 && v < n)

let rng_exponential_positive () =
  let rng = Sim.Rng.create ~seed:7L in
  for _ = 1 to 1000 do
    check_bool "positive" true (Sim.Rng.exponential rng ~mean:5.0 >= 0.0)
  done

let rng_shuffle_permutes =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:100
    QCheck.(pair small_int (list small_int))
    (fun (seed, xs) ->
      let arr = Array.of_list xs in
      let rng = Sim.Rng.create ~seed:(Int64.of_int seed) in
      Sim.Rng.shuffle rng arr;
      List.sort compare (Array.to_list arr) = List.sort compare xs)

(* --- Engine --- *)

let engine_virtual_time () =
  let w = make_world ~hosts:1 () in
  let times = ref [] in
  Sim.Engine.spawn w.engine (fun () ->
      Sim.Engine.sleep 10.0;
      times := Sim.Engine.time () :: !times;
      Sim.Engine.sleep 5.5;
      times := Sim.Engine.time () :: !times);
  Sim.Engine.run w.engine;
  check (Alcotest.list (Alcotest.float 1e-9)) "sleep advances clock" [ 15.5; 10.0 ]
    !times

let engine_fifo_same_instant () =
  let w = make_world ~hosts:1 () in
  let order = ref [] in
  for i = 1 to 5 do
    Sim.Engine.spawn w.engine (fun () -> order := i :: !order)
  done;
  Sim.Engine.run w.engine;
  check (Alcotest.list Alcotest.int) "FIFO at same timestamp" [ 1; 2; 3; 4; 5 ]
    (List.rev !order)

let engine_ivar_blocks () =
  let w = make_world ~hosts:1 () in
  let iv = Sim.Engine.Ivar.create () in
  let got = ref 0 in
  Sim.Engine.spawn w.engine (fun () -> got := Sim.Engine.Ivar.read iv);
  Sim.Engine.spawn w.engine (fun () ->
      Sim.Engine.sleep 3.0;
      Sim.Engine.Ivar.fill iv 42);
  Sim.Engine.run w.engine;
  check_int "ivar delivered" 42 !got

let engine_ivar_double_fill () =
  let iv = Sim.Engine.Ivar.create () in
  Sim.Engine.Ivar.fill iv 1;
  check_bool "fill_if_empty refuses" false (Sim.Engine.Ivar.fill_if_empty iv 2);
  (match Sim.Engine.Ivar.fill iv 2 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "second fill should raise");
  check (Alcotest.option Alcotest.int) "peek" (Some 1) (Sim.Engine.Ivar.peek iv)

let engine_ivar_timeout () =
  let w = make_world ~hosts:1 () in
  let iv = Sim.Engine.Ivar.create () in
  let r =
    in_sim w (fun () ->
        let a = Sim.Engine.Ivar.read_timeout iv 5.0 in
        let t_after = Sim.Engine.time () in
        Sim.Engine.Ivar.fill iv 9;
        let b = Sim.Engine.Ivar.read_timeout iv 5.0 in
        (a, t_after, b))
  in
  (match r with
  | None, 5.0, Some 9 -> ()
  | _ -> Alcotest.fail "timeout semantics wrong")

let engine_mailbox_fifo () =
  let w = make_world ~hosts:1 () in
  let mb = Sim.Engine.Mailbox.create () in
  let got =
    in_sim w (fun () ->
        Sim.Engine.Mailbox.send mb 1;
        Sim.Engine.Mailbox.send mb 2;
        Sim.Engine.Mailbox.send mb 3;
        let a = Sim.Engine.Mailbox.recv mb in
        let b = Sim.Engine.Mailbox.recv mb in
        let c = Sim.Engine.Mailbox.recv mb in
        [ a; b; c ])
  in
  check (Alcotest.list Alcotest.int) "fifo" [ 1; 2; 3 ] got

let engine_mailbox_timeout_no_lost_message () =
  (* A timed-out receiver must not swallow a message that arrives
     later. *)
  let w = make_world ~hosts:1 () in
  let mb = Sim.Engine.Mailbox.create () in
  let got = ref (-1) in
  Sim.Engine.spawn w.engine (fun () ->
      (match Sim.Engine.Mailbox.recv_timeout mb 2.0 with
      | Some _ -> Alcotest.fail "nothing should arrive before 2ms"
      | None -> ());
      got := Sim.Engine.Mailbox.recv mb);
  Sim.Engine.spawn w.engine (fun () ->
      Sim.Engine.sleep 10.0;
      Sim.Engine.Mailbox.send mb 77);
  Sim.Engine.run w.engine;
  check_int "late message delivered" 77 !got

let engine_process_failure () =
  let w = make_world ~hosts:1 () in
  Sim.Engine.spawn w.engine ~name:"crasher" (fun () -> failwith "boom");
  match Sim.Engine.run w.engine with
  | exception Sim.Engine.Process_failure (name, Failure msg) ->
      check_string "process name" "crasher" name;
      check_string "original exception" "boom" msg
  | exception e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e)
  | () -> Alcotest.fail "failure should propagate"

let engine_run_until () =
  let w = make_world ~hosts:1 () in
  let fired = ref [] in
  Sim.Engine.at w.engine 5.0 (fun () -> fired := 5 :: !fired);
  Sim.Engine.at w.engine 15.0 (fun () -> fired := 15 :: !fired);
  Sim.Engine.run_until w.engine 10.0;
  check (Alcotest.list Alcotest.int) "only early event" [ 5 ] !fired;
  check_float_near "clock at deadline" 10.0 (Sim.Engine.now w.engine);
  Sim.Engine.run w.engine;
  check (Alcotest.list Alcotest.int) "rest runs" [ 15; 5 ] !fired

let engine_determinism () =
  (* Two identical runs execute the same number of events and end at
     the same virtual time. *)
  let run () =
    let w = make_world ~hosts:2 () in
    let mb = Sim.Engine.Mailbox.create () in
    Sim.Engine.spawn w.engine (fun () ->
        for i = 1 to 10 do
          Sim.Engine.sleep (float_of_int i);
          Sim.Engine.Mailbox.send mb i
        done);
    Sim.Engine.spawn w.engine (fun () ->
        for _ = 1 to 10 do
          ignore (Sim.Engine.Mailbox.recv mb);
          Sim.Engine.sleep 0.5
        done);
    Sim.Engine.run w.engine;
    (Sim.Engine.now w.engine, Sim.Engine.events_executed w.engine)
  in
  let a = run () and b = run () in
  check_bool "identical executions" true (a = b)

(* --- Engine against its reference model --- *)

(* The part of an engine the generated programs use, so that one program
   runs on Sim.Engine and on Engine_model. *)
module type ENGINE = sig
  type t

  val create : unit -> t
  val spawn : t -> ?name:string -> (unit -> unit) -> unit
  val at : t -> float -> (unit -> unit) -> unit
  val run : t -> unit
  val run_until : t -> float -> unit
  val now : t -> float
  val events_executed : t -> int
  val sleep : float -> unit
  val time : unit -> float
  val self_pid : unit -> int
  val spawn_child : ?name:string -> (unit -> unit) -> unit

  module Ivar : sig
    type 'a ivar

    val create : unit -> 'a ivar
    val fill_if_empty : 'a ivar -> 'a -> bool
    val is_full : 'a ivar -> bool
    val read_timeout : 'a ivar -> float -> 'a option
  end

  module Mailbox : sig
    type 'a mailbox

    val create : unit -> 'a mailbox
    val send : 'a mailbox -> 'a -> unit
    val recv_timeout : 'a mailbox -> float -> 'a option
    val length : 'a mailbox -> int
  end
end

(* Every fiber shares one mailbox and [n_ivars] ivars. A spawned child
   and an [at] callback each log one entry of their own. *)
type sim_op =
  | Sleep of float
  | Send
  | Recv of float  (* timeout *)
  | Fill of int  (* ivar *)
  | Read of int * float  (* ivar, timeout *)
  | Spawn
  | At of float  (* delay *)

type sim_program = { fibers : sim_op list list; until : float option }

let n_ivars = 3

type sim_result = {
  log : (int * int * float * int * int) list;
      (* fiber, op index, time (), self_pid (), result *)
  now_after_until : float option;
  now_after_run : float;
  executed : int;
  answered : int;  (* timed waits that blocked, then got their answer *)
}

module Exec (E : ENGINE) = struct
  (* The reference engine's ambient reads are effects, unhandled outside
     a process; its callers read that as 0. and pid 0. *)
  let time () = try E.time () with Effect.Unhandled _ -> 0.0
  let self_pid () = try E.self_pid () with Effect.Unhandled _ -> 0

  (* A wait's result is the value it got, or -1 on timeout; a fill's is
     1 when it filled. Each fiber sends and fills its own values; a
     child's or callback's entry carries its op's value. *)
  let run p =
    let e = E.create () in
    let mb = E.Mailbox.create () in
    let ivs = Array.init n_ivars (fun _ -> E.Ivar.create ()) in
    let log = ref [] and answered = ref 0 in
    let note f i result = log := (f, i, time (), self_pid (), result) :: !log in
    let waited blocks = function
      | Some v ->
          if blocks then incr answered;
          v
      | None -> -1
    in
    List.iteri
      (fun f ops ->
        E.spawn e (fun () ->
            List.iteri
              (fun i op ->
                let v = (1000 * f) + i in
                let result =
                  match op with
                  | Sleep d ->
                      E.sleep d;
                      0
                  | Send ->
                      E.Mailbox.send mb v;
                      0
                  | Recv d ->
                      let blocks = E.Mailbox.length mb = 0 in
                      waited blocks (E.Mailbox.recv_timeout mb d)
                  | Fill n -> Bool.to_int (E.Ivar.fill_if_empty ivs.(n) v)
                  | Read (n, d) ->
                      let blocks = not (E.Ivar.is_full ivs.(n)) in
                      waited blocks (E.Ivar.read_timeout ivs.(n) d)
                  | Spawn ->
                      E.spawn_child (fun () -> note f i v);
                      0
                  | At d ->
                      E.at e d (fun () -> note f i v);
                      0
                in
                note f i result)
              ops))
      p.fibers;
    let now_after_until =
      Option.map
        (fun deadline ->
          E.run_until e deadline;
          E.now e)
        p.until
    in
    E.run e;
    {
      log = List.rev !log;
      now_after_until;
      now_after_run = E.now e;
      executed = E.events_executed e;
      answered = !answered;
    }
end

module On_engine = Exec (Sim.Engine)
module On_model = Exec (Engine_model)

let print_sim_program p =
  let op = function
    | Sleep d -> Printf.sprintf "sleep %g" d
    | Send -> "send"
    | Recv d -> Printf.sprintf "recv %g" d
    | Fill n -> Printf.sprintf "fill i%d" n
    | Read (n, d) -> Printf.sprintf "read i%d %g" n d
    | Spawn -> "spawn"
    | At d -> Printf.sprintf "at %g" d
  in
  Printf.sprintf "until=%s %s"
    (Option.fold ~none:"-" ~some:string_of_float p.until)
    (String.concat " | "
       (List.map (fun ops -> String.concat "; " (List.map op ops)) p.fibers))

(* Small whole-millisecond steps make answers, timeouts and ties at one
   instant all common. A fiber either answers (each send or fill after a
   sleep), waits, or draws any op at each step. In half the programs the
   waits are mostly 1000 ms, which outlives the program: the answered
   ones pile up cancelled timers past the compaction threshold while
   other fibers' events are queued, and the clock rule alone sets where
   [run] ends. *)
let gen_sim_program =
  let open QCheck.Gen in
  let step = oneofl [ 0.0; 1.0; 2.0; 3.0 ] in
  let ivar = int_bound (n_ivars - 1) in
  let fiber timeout =
    let send = return Send and fill = map (fun n -> Fill n) ivar in
    let recv = map (fun d -> Recv d) timeout
    and read = map2 (fun n d -> Read (n, d)) ivar timeout in
    let answer =
      map2 (fun d op -> [ Sleep d; op ]) step (frequency [ (4, send); (1, fill) ])
    and wait = map (fun op -> [ op ]) (frequency [ (4, recv); (1, read) ])
    and any =
      map
        (fun op -> [ op ])
        (frequency
           [
             (2, map (fun d -> Sleep d) step);
             (4, send);
             (4, recv);
             (1, fill);
             (2, read);
             (1, return Spawn);
             (1, map (fun d -> At d) step);
           ])
    in
    let* chunk = oneofl [ answer; wait; any ] in
    map List.concat (list_size (int_range 0 120) chunk)
  in
  let timeout =
    oneofl
      [
        frequency [ (3, step); (2, oneofl [ 50.0; 1000.0 ]) ];
        frequency [ (1, step); (4, return 1000.0) ];
      ]
  in
  let until = opt ~ratio:0.3 (oneofl [ 0.0; 1.0; 2.5; 10.0; 60.0 ]) in
  let* timeout in
  map2
    (fun fibers until -> { fibers; until })
    (list_size (int_range 1 4) (fiber timeout))
    until

(* Bit for bit the same log and clocks as the reference engine. Every
   timed wait that blocked and then got its answer is one event fewer:
   the model runs its timer as a no-op, the engine cancels it. So the
   counts are equal exactly when no such wait happened. *)
let engine_matches_model =
  QCheck.Test.make ~name:"engine: log, clock and count match the reference model"
    ~count:300
    (QCheck.make ~print:print_sim_program gen_sim_program)
    (fun p ->
      let got = On_engine.run p and want = On_model.run p in
      let same_entry (f, i, t, pid, r) (f', i', t', pid', r') =
        f = f' && i = i' && same_bits t t' && pid = pid' && r = r'
      in
      List.equal same_entry got.log want.log
      && Option.equal same_bits got.now_after_until want.now_after_until
      && same_bits got.now_after_run want.now_after_run
      && got.executed <= want.executed
      && got.executed + got.answered = want.executed)

(* One timed wait answered at 1 ms: its timeout never runs, but [run]
   still ends at its deadline, as the model's no-op firing does. *)
let engine_answered_timeout_keeps_clock wait () =
  let p = { fibers = [ [ wait ]; [ Sleep 1.0; Send; Fill 0 ] ]; until = None } in
  let got = On_engine.run p and want = On_model.run p in
  check (Alcotest.list (Alcotest.float 0.0)) "answered at 1 ms" [ 1.0; 1.0; 1.0; 1.0 ]
    (List.map (fun (_, _, t, _, _) -> t) got.log);
  check_float_near "run ends at the deadline" 1000.0 got.now_after_run;
  check_float_near "as the model's does" want.now_after_run got.now_after_run;
  check_int "one event fewer than the model" (want.executed - 1) got.executed

(* 32 waits answered at once: the 32nd answer drops all 32 timeouts in
   one pass, before any comes due, so only that pass can tell [run]
   where to end. *)
let engine_dropped_timeouts_keep_clock () =
  let n = 32 in
  let receiver = List.init n (fun _ -> Recv 1000.0)
  and sender = List.concat (List.init n (fun _ -> [ Send; Sleep 0.0 ])) in
  let p = { fibers = [ receiver; sender ]; until = None } in
  let got = On_engine.run p and want = On_model.run p in
  check_int "every wait answered" n got.answered;
  check_float_near "run ends at the deadline" 1000.0 got.now_after_run;
  check_float_near "as the model's does" want.now_after_run got.now_after_run;
  check_int "no timeout ran" (want.executed - n) got.executed

(* A wait answered 0.1 ms after it starts, 10,000 times: cancelled
   timeouts are dropped, so the queue stays near its live events instead
   of holding each timeout for its whole second. *)
let engine_pending_bounded () =
  let e = Sim.Engine.create () and mb = Sim.Engine.Mailbox.create () in
  let peak = ref 0 and answered = ref 0 in
  Sim.Engine.spawn e (fun () ->
      for _ = 1 to 10_000 do
        if Sim.Engine.Mailbox.recv_timeout mb 1000.0 <> None then incr answered;
        peak := max !peak (Sim.Engine.pending e)
      done);
  Sim.Engine.spawn e (fun () ->
      for i = 1 to 10_000 do
        Sim.Engine.sleep 0.1;
        Sim.Engine.Mailbox.send mb i
      done);
  Sim.Engine.run e;
  check_int "every wait answered" 10_000 !answered;
  check_int "queue drained" 0 (Sim.Engine.pending e);
  if !peak > 100 then Alcotest.failf "the queue reached %d events" !peak

(* An [at] whose delay rounds away at the current instant is due now,
   like a zero-delay one, so it runs between the zero-delay callbacks
   queued before and after it. *)
let engine_same_instant_order () =
  let e = Sim.Engine.create () in
  Sim.Engine.run_until e 1e6;
  let order = ref [] in
  let note i () = order := i :: !order in
  Sim.Engine.at e 0.0 (note 1);
  Sim.Engine.at e 1e-12 (note 2);
  Sim.Engine.at e 0.0 (note 3);
  Sim.Engine.run e;
  check (Alcotest.list Alcotest.int) "scheduling order" [ 1; 2; 3 ] (List.rev !order);
  check_float_near "clock did not move" 1e6 (Sim.Engine.now e)

(* Queues a zero-delay and a timed callback that capture one boxed
   value, leaving only a weak pointer to it. The timed one is queued
   after the event due at 5 ms, so it moves between slots before it
   runs. *)
let[@inline never] queue_capturing e w =
  let x = ref 42 in
  Weak.set w 0 (Some x);
  let use () = ignore (Sys.opaque_identity !x) in
  Sim.Engine.at e 0.5 ignore;
  Sim.Engine.at e 5.0 ignore;
  Sim.Engine.at e 1.0 use;
  Sim.Engine.at e 0.0 use

let engine_releases_run_events () =
  let e = Sim.Engine.create () and w = Weak.create 1 in
  queue_capturing e w;
  Sim.Engine.run_until e 2.0;
  Gc.full_major ();
  check_bool "value collected" false (Weak.check w 0);
  check_int "one event still queued" 1 (Sim.Engine.pending e)

let engine_pending_counts_spawns () =
  let e = Sim.Engine.create () in
  for _ = 1 to 3 do
    Sim.Engine.spawn e ignore
  done;
  check_int "three spawns queued" 3 (Sim.Engine.pending e);
  Sim.Engine.run e;
  check_int "drained" 0 (Sim.Engine.pending e)

(* --- The running-process slot --- *)

let ambient () = (Sim.Engine.time (), Sim.Engine.self_pid ())
let clock_pid = Alcotest.(pair (float 0.0) int)

(* Top-level code and [at] callbacks run in no process, even while a
   process sleeps between them. *)
let engine_ambient_outside_process () =
  let e = Sim.Engine.create () in
  let seen = ref [] in
  let note () = seen := ambient () :: !seen in
  note ();
  Sim.Engine.spawn e (fun () ->
      Sim.Engine.sleep 5.0;
      Sim.Engine.at e 2.0 note;
      Sim.Engine.sleep 10.0);
  Sim.Engine.at e 3.0 note;
  Sim.Engine.run e;
  note ();
  check (Alcotest.list clock_pid) "no process" (List.init 4 (fun _ -> (0.0, 0))) !seen

(* An engine run inside a process hands the slot back to that process:
   its own reads afterwards, and the inner engine's [at] callbacks,
   which run in the outer process as they do under its effect handler. *)
let engine_nested_run_restores_slot () =
  let outer = Sim.Engine.create () in
  let inner_proc = ref (nan, -1) and inner_at = ref (nan, -1) and after = ref (nan, -1) in
  Sim.Engine.spawn outer ignore;
  Sim.Engine.spawn outer (fun () ->
      Sim.Engine.sleep 7.0;
      let inner = Sim.Engine.create () in
      Sim.Engine.spawn inner (fun () ->
          Sim.Engine.sleep 1.0;
          inner_proc := ambient ());
      Sim.Engine.at inner 2.0 (fun () -> inner_at := ambient ());
      Sim.Engine.run inner;
      after := ambient ());
  Sim.Engine.run outer;
  check clock_pid "inner process" (1.0, 1) !inner_proc;
  check clock_pid "inner at callback" (7.0, 2) !inner_at;
  check clock_pid "outer process after the inner run" (7.0, 2) !after

(* A process that raises out of [run], from the engine's handler or as a
   [Process_failure], leaves no process running. *)
let engine_slot_cleared_after_raise () =
  let raises_out body =
    let e = Sim.Engine.create () in
    Sim.Engine.spawn e (fun () ->
        Sim.Engine.sleep 4.0;
        body ());
    match Sim.Engine.run e with
    | () -> Alcotest.fail "run should raise"
    | exception (Invalid_argument _ | Sim.Engine.Process_failure _) -> ambient ()
  in
  check clock_pid "after a negative sleep" (0.0, 0)
    (raises_out (fun () -> Sim.Engine.sleep (-1.0)));
  check clock_pid "after a process failure" (0.0, 0) (raises_out (fun () -> failwith "boom"))

(* [charge 0.] does not yield: the sibling spawned first still runs
   second, and no event is queued. Outside a process it does nothing. *)
let engine_charge () =
  let e = Sim.Engine.create () in
  let order = ref [] in
  Sim.Engine.spawn e (fun () ->
      let pending = Sim.Engine.pending e and executed = Sim.Engine.events_executed e in
      Sim.Engine.charge 0.0;
      order := "charger" :: !order;
      check_int "no event queued" pending (Sim.Engine.pending e);
      check_int "no event run" executed (Sim.Engine.events_executed e);
      Sim.Engine.charge 2.5;
      check_float_near "a positive charge sleeps" 2.5 (Sim.Engine.time ()));
  Sim.Engine.spawn e (fun () -> order := "sibling" :: !order);
  Sim.Engine.run e;
  check_strings "charge 0. does not yield" [ "charger"; "sibling" ] (List.rev !order);
  Sim.Engine.charge 5.0;
  check_float_near "clock left alone" 2.5 (Sim.Engine.now e)

let engine_spawn_child_outside_process () =
  match Sim.Engine.spawn_child ignore with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "spawn_child outside a process should raise"

(* Minor words per call of [f e], over 100,000 calls inside a process
   on engine [e]. *)
let words_per_call f =
  let e = Sim.Engine.create () and words = ref nan in
  let n = 100_000 in
  Sim.Engine.spawn e (fun () ->
      f e;
      let before = Gc.minor_words () in
      for _ = 1 to n do
        f e
      done;
      words := (Gc.minor_words () -. before) /. float_of_int n);
  Sim.Engine.run e;
  !words

(* The ambient reads allocate nothing but the float [time ()] returns.
   The other primitives are held at their current counts. An answered
   wait here is a [recv_timeout] answered by an [at] callback 0.5 ms
   later, and a wake is an [Ivar.read] woken by a zero-delay fill. *)
let engine_allocation_guards () =
  let guard name limit f =
    let words = words_per_call f in
    if words > limit then Alcotest.failf "%s allocated %.3f minor words per call" name words
  in
  guard "self_pid" 0.001 (fun _ -> ignore (Sys.opaque_identity (Sim.Engine.self_pid ())));
  guard "time" 2.001 (fun _ -> ignore (Sys.opaque_identity (Sim.Engine.time ())));
  guard "sleep" 22.001 (fun _ -> Sim.Engine.sleep 1.0);
  guard "spawn_child" 12.02 (fun _ -> Sim.Engine.spawn_child ignore);
  let mb = Sim.Engine.Mailbox.create () in
  guard "answered recv_timeout" 59.01 (fun e ->
      Sim.Engine.at e 0.5 (fun () -> Sim.Engine.Mailbox.send mb ());
      ignore (Sim.Engine.Mailbox.recv_timeout mb 1000.0));
  guard "woken Ivar.read" 44.001 (fun e ->
      let iv = Sim.Engine.Ivar.create () in
      Sim.Engine.at e 0.0 (fun () -> Sim.Engine.Ivar.fill iv ());
      Sim.Engine.Ivar.read iv)

(* --- Stats --- *)

let stats_basic () =
  let s = Sim.Stats.create ~name:"t" () in
  List.iter (Sim.Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  check_int "count" 4 (Sim.Stats.count s);
  check_float_near "mean" 2.5 (Sim.Stats.mean s);
  check_float_near "min" 1.0 (Sim.Stats.min_value s);
  check_float_near "max" 4.0 (Sim.Stats.max_value s);
  check_float_near "median" 2.5 (Sim.Stats.median s);
  check_float_near "p0" 1.0 (Sim.Stats.percentile s 0.0);
  check_float_near "p100" 4.0 (Sim.Stats.percentile s 100.0)

let stats_stddev () =
  let s = Sim.Stats.create () in
  List.iter (Sim.Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check_float_near "population stddev" 2.0 (Sim.Stats.stddev s)

let stats_percentile_interpolates =
  QCheck.Test.make ~name:"percentile within [min,max]" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 1 50) (float_range (-1000.) 1000.)) (float_range 0. 100.))
    (fun (xs, p) ->
      let s = Sim.Stats.create () in
      List.iter (Sim.Stats.add s) xs;
      let v = Sim.Stats.percentile s p in
      v >= Sim.Stats.min_value s -. 1e-9 && v <= Sim.Stats.max_value s +. 1e-9)

(* The list-and-sort accumulator [Sim.Stats] replaced, kept as the
   reference its percentiles and samples must match bit for bit. *)
module Stats_model = struct
  type t = { mutable xs : float list (* newest first *) }

  let create () = { xs = [] }
  let add t x = t.xs <- x :: t.xs
  let clear t = t.xs <- []
  let samples t = List.rev t.xs

  let percentile t p =
    let sorted = Array.of_list (List.sort compare t.xs) in
    let rank = p /. 100.0 *. float_of_int (Array.length sorted - 1) in
    let lo_i = int_of_float (floor rank) and hi_i = int_of_float (ceil rank) in
    if lo_i = hi_i then sorted.(lo_i)
    else begin
      let frac = rank -. float_of_int lo_i in
      sorted.(lo_i) +. (frac *. (sorted.(hi_i) -. sorted.(lo_i)))
    end
end

type stats_op = Add of float | Read | Clear

let stats_matches_model =
  let op =
    QCheck.Gen.(
      frequency [ (6, map (fun v -> Add v) gen_dup_float); (3, return Read); (1, return Clear) ])
  in
  let print = function Add v -> Printf.sprintf "add %h" v | Read -> "read" | Clear -> "clear" in
  QCheck.Test.make ~name:"stats: samples and percentiles bit-identical to the list model"
    ~count:300
    (QCheck.make ~print:QCheck.Print.(list print) QCheck.Gen.(list_size (int_range 0 80) op))
    (fun ops ->
      let s = Sim.Stats.create () and m = Stats_model.create () in
      let agrees () =
        List.equal same_bits (Stats_model.samples m) (Sim.Stats.samples s)
        && Sim.Stats.count s = List.length m.Stats_model.xs
        && (m.Stats_model.xs = []
           || List.for_all
                (fun p -> same_bits (Stats_model.percentile m p) (Sim.Stats.percentile s p))
                model_ps)
      in
      List.for_all
        (fun op ->
          (match op with
          | Add v ->
              Sim.Stats.add s v;
              Stats_model.add m v
          | Read -> ()
          | Clear ->
              Sim.Stats.clear s;
              Stats_model.clear m);
          agrees ())
        ops)

(* A percentile read shares the sorted copy the first read made: no
   re-sort, so it allocates only its boxed result. *)
let stats_repeat_percentile_allocates_nothing () =
  let s = Sim.Stats.create () in
  for i = 1 to 100_000 do
    Sim.Stats.add s (float_of_int ((i * 7919) mod 100_003))
  done;
  ignore (Sys.opaque_identity (Sim.Stats.percentile s 99.0));
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Sim.Stats.percentile s 50.0));
  let words = Gc.minor_words () -. before in
  if words > 16.0 then
    Alcotest.failf "a repeated percentile over 100k samples allocated %.0f words" words

let histogram_counts () =
  let h = Sim.Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~bins:5 in
  List.iter (Sim.Stats.Histogram.add h) [ -1.0; 0.0; 1.9; 2.0; 9.99; 10.0; 50.0 ];
  check_int "underflow" 1 (Sim.Stats.Histogram.underflow h);
  check_int "overflow" 2 (Sim.Stats.Histogram.overflow h);
  check (Alcotest.array Alcotest.int) "bins" [| 2; 1; 0; 0; 1 |]
    (Sim.Stats.Histogram.counts h);
  check_int "total" 7 (Sim.Stats.Histogram.total h)

(* --- Topology --- *)

let topology_delays () =
  let topo = Sim.Topology.create ~default_latency_ms:1.0 ~default_per_byte_ms:0.001 ~loopback_ms:0.05 () in
  let a = Sim.Topology.add_host topo "a" and b = Sim.Topology.add_host topo "b" in
  check_float_near "loopback" 0.05 (Sim.Topology.delay topo ~src:a ~dst:a ~bytes:1000);
  check_float_near "default" 2.0 (Sim.Topology.delay topo ~src:a ~dst:b ~bytes:1000);
  Sim.Topology.set_link topo a b ~latency_ms:10.0 ~per_byte_ms:0.0;
  check_float_near "override" 10.0 (Sim.Topology.delay topo ~src:b ~dst:a ~bytes:1000)

let topology_duplicate_host () =
  let topo = Sim.Topology.create () in
  ignore (Sim.Topology.add_host topo "x");
  match Sim.Topology.add_host topo "x" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate host should raise"

let suite =
  [
    Alcotest.test_case "heap pop order" `Quick heap_pop_order;
    Alcotest.test_case "heap empty ops" `Quick heap_empty;
    Alcotest.test_case "heap pop releases element" `Quick heap_pop_releases;
    qtest heap_sorts_any_list;
    Alcotest.test_case "rng deterministic" `Quick rng_deterministic;
    Alcotest.test_case "rng split" `Quick rng_split_independent;
    qtest rng_int_in_range;
    Alcotest.test_case "rng exponential" `Quick rng_exponential_positive;
    qtest rng_shuffle_permutes;
    Alcotest.test_case "virtual time" `Quick engine_virtual_time;
    Alcotest.test_case "FIFO at instant" `Quick engine_fifo_same_instant;
    Alcotest.test_case "ivar blocks" `Quick engine_ivar_blocks;
    Alcotest.test_case "ivar double fill" `Quick engine_ivar_double_fill;
    Alcotest.test_case "ivar timeout" `Quick engine_ivar_timeout;
    Alcotest.test_case "mailbox fifo" `Quick engine_mailbox_fifo;
    Alcotest.test_case "mailbox timeout keeps messages" `Quick
      engine_mailbox_timeout_no_lost_message;
    Alcotest.test_case "process failure propagates" `Quick engine_process_failure;
    Alcotest.test_case "run_until" `Quick engine_run_until;
    Alcotest.test_case "determinism" `Quick engine_determinism;
    qtest engine_matches_model;
    Alcotest.test_case "answered recv_timeout keeps the clock" `Quick
      (engine_answered_timeout_keeps_clock (Recv 1000.0));
    Alcotest.test_case "answered read_timeout keeps the clock" `Quick
      (engine_answered_timeout_keeps_clock (Read (0, 1000.0)));
    Alcotest.test_case "timeouts dropped in one pass keep the clock" `Quick
      engine_dropped_timeouts_keep_clock;
    Alcotest.test_case "pending stays bounded" `Quick engine_pending_bounded;
    Alcotest.test_case "same-instant events run in scheduling order" `Quick
      engine_same_instant_order;
    Alcotest.test_case "run events are released" `Quick engine_releases_run_events;
    Alcotest.test_case "pending counts spawns" `Quick engine_pending_counts_spawns;
    Alcotest.test_case "no process at top level or in at" `Quick engine_ambient_outside_process;
    Alcotest.test_case "nested run restores the process" `Quick engine_nested_run_restores_slot;
    Alcotest.test_case "raising out of run clears the process" `Quick
      engine_slot_cleared_after_raise;
    Alcotest.test_case "charge" `Quick engine_charge;
    Alcotest.test_case "spawn_child outside a process raises" `Quick
      engine_spawn_child_outside_process;
    Alcotest.test_case "engine primitives' allocations" `Quick engine_allocation_guards;
    Alcotest.test_case "stats basics" `Quick stats_basic;
    Alcotest.test_case "stats stddev" `Quick stats_stddev;
    qtest stats_percentile_interpolates;
    qtest stats_matches_model;
    Alcotest.test_case "stats repeated percentile allocates nothing" `Quick
      stats_repeat_percentile_allocates_nothing;
    Alcotest.test_case "histogram" `Quick histogram_counts;
    Alcotest.test_case "topology delays" `Quick topology_delays;
    Alcotest.test_case "topology duplicate host" `Quick topology_duplicate_host;
  ]

(* pretty-printer smoke tests: they must never raise and must contain
   the load-bearing numbers *)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let pp_smoke () =
  let s = Sim.Stats.create ~name:"lat" () in
  List.iter (Sim.Stats.add s) [ 1.0; 2.0; 3.0 ];
  let rendered = Format.asprintf "%a" Sim.Stats.pp s in
  check_bool "stats pp mentions mean" true (contains ~needle:"mean=2.00" rendered);
  let h = Sim.Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~bins:2 in
  Sim.Stats.Histogram.add h 1.0;
  check_bool "histogram pp" true (String.length (Format.asprintf "%a" Sim.Stats.Histogram.pp h) > 0)

let pp_cases = [ Alcotest.test_case "pp smoke" `Quick pp_smoke ]

let suite = suite @ pp_cases
