(* Micro-probes: wall-clock nanoseconds per call of one public function
   per layer, on the monotonic clock. Each probe's state is sized from
   the workload that just ran in the same process. Calls that read or
   charge virtual time run inside a throwaway engine process, as they
   do inside the workloads. *)

let now () = Monotonic_clock.now ()

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Median over five batches of the per-call time, each batch long
   enough ([batch_ns]) that the clock's own cost is negligible. *)
let ns_per_call ~batch_ns f =
  let batch n =
    let t0 = now () in
    for _ = 1 to n do
      f ()
    done;
    Int64.sub (now ()) t0
  in
  let rec calibrate n =
    if Int64.to_float (batch n) >= batch_ns || n >= 1 lsl 22 then n else calibrate (n * 4)
  in
  let n = calibrate 1 in
  median (List.init 5 (fun _ -> Int64.to_float (batch n) /. float_of_int n))

let in_engine f =
  let e = Sim.Engine.create () in
  let r = ref None in
  Sim.Engine.spawn e ~name:"probe" (fun () -> r := Some (f ()));
  Sim.Engine.run e;
  Option.get !r

(* What the probes size their state from. *)
type sizes = {
  heap_live : int;  (** pending engine events during one operation *)
  slo_window : int;  (** samples in the fullest SLO window the run left *)
  latencies : float array;  (** the run's own latency samples *)
  cache_entries : int;
}

let heap_ns ~batch_ns ~live =
  let h = Sim.Heap.create ~leq:(fun (a : float) b -> a <= b) in
  let rng = Sim.Rng.create ~seed:7L in
  let gaps = Array.init 4096 (fun _ -> Sim.Rng.float rng 100.0) in
  for i = 1 to live do
    Sim.Heap.push h gaps.(i land 4095)
  done;
  let i = ref 0 in
  ns_per_call ~batch_ns (fun () ->
      incr i;
      let t = Sim.Heap.pop h in
      Sim.Heap.push h (t +. gaps.(!i land 4095)))

(* Steady state of a 60 s window: one observation per interarrival of
   virtual time, latencies drawn from the workload's own samples. *)
let slo_observe_ns ~batch_ns ~window ~latencies =
  let n_lat = Array.length latencies in
  let lat i = if n_lat = 0 then 100.0 else latencies.(i mod n_lat) in
  in_engine (fun () ->
      let slo = Obs.Slo.get_or_create ~target_ms:150.0 ~window_ms:60_000.0 "perf-probe" in
      let gap = 60_000.0 /. float_of_int window in
      for i = 1 to window do
        Sim.Engine.sleep gap;
        Obs.Slo.observe slo (lat i)
      done;
      let spent = ref 0L and per = ref [] and i = ref 0 in
      while Int64.to_float !spent < 5.0 *. batch_ns do
        Sim.Engine.sleep gap;
        incr i;
        let l = lat !i in
        let t0 = now () in
        Obs.Slo.observe slo l;
        let dt = Int64.sub (now ()) t0 in
        spent := Int64.add !spent dt;
        per := Int64.to_float dt :: !per
      done;
      median !per)

let stats_percentile_ns ~batch_ns ~latencies =
  let s = Sim.Stats.create ~name:"probe" () in
  Array.iter (Sim.Stats.add s) latencies;
  if Array.length latencies = 0 then Sim.Stats.add s 1.0;
  ns_per_call ~batch_ns (fun () -> ignore (Sim.Stats.percentile s 99.0))

(* A six-answer A reply, the shape of a host-address answer with its
   peers. *)
let msg_codec_ns ~batch_ns =
  let name = Dns.Name.of_string "samoa.cs.washington.edu." in
  let request = Dns.Msg.query ~id:7 name Dns.Rr.T_a in
  let reply =
    Dns.Msg.response ~request
      (List.init 6 (fun i ->
           Dns.Rr.make ~ttl:3600l name (Dns.Rr.A (Int32.of_int (0x0a000001 + i)))))
  in
  ns_per_call ~batch_ns (fun () -> ignore (Dns.Msg.decode (Dns.Msg.encode reply)))

let nsm_info =
  {
    Hns.Meta_schema.nsm_host = "fiji";
    nsm_host_context = "uw-cs";
    nsm_port = 2049;
    nsm_prog = 0x20000101;
    nsm_vers = 1;
    nsm_suite = Hrpc.Component.sunrpc_suite;
  }

let generic_marshal_ns ~batch_ns =
  let ty = Hns.Meta_schema.nsm_info_ty and rep = Wire.Data_rep.Xdr in
  let v = Hns.Meta_schema.nsm_info_to_value nsm_info in
  ns_per_call ~batch_ns (fun () ->
      ignore (Wire.Generic_marshal.unmarshal rep ty (Wire.Generic_marshal.marshal rep ty v)))

let hand_codec_ns ~batch_ns =
  ns_per_call ~batch_ns (fun () ->
      ignore (Hns.Hot_codec.decode_nsm_info (Hns.Hot_codec.encode_nsm_info nsm_info)))

let cache_find_ns ~batch_ns ~entries =
  in_engine (fun () ->
      let cache = Hns.Cache.create ~mode:Hns.Cache.Demarshalled () in
      let ty = Hns.Meta_schema.string_ty in
      let keys = Array.init entries (fun i -> Printf.sprintf "ctx.k%d" i) in
      Array.iter (fun key -> Hns.Cache.insert cache ~key ~ty (Wire.Value.str key)) keys;
      let i = ref 0 in
      ns_per_call ~batch_ns (fun () ->
          i := (!i + 7919) mod entries;
          ignore (Hns.Cache.find cache ~key:keys.(!i) ~ty)))

(* (metric name, ns per call) for every probe. *)
let run ~batch_ns (s : sizes) =
  [
    ("sim.heap_ns", heap_ns ~batch_ns ~live:s.heap_live);
    ("obs.slo_observe_ns", slo_observe_ns ~batch_ns ~window:s.slo_window ~latencies:s.latencies);
    ("obs.stats_percentile_ns", stats_percentile_ns ~batch_ns ~latencies:s.latencies);
    ("wire.msg_codec_ns", msg_codec_ns ~batch_ns);
    ("wire.generic_marshal_ns", generic_marshal_ns ~batch_ns);
    ("wire.hand_codec_ns", hand_codec_ns ~batch_ns);
    ("hns.cache_find_ns", cache_find_ns ~batch_ns ~entries:(max 1 s.cache_entries));
  ]
