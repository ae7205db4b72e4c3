(* Shared test plumbing: a small simulated network and process runner. *)

let check = Alcotest.check
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_strings = Alcotest.(check (list string))

let check_float_near msg expected actual =
  if Float.abs (expected -. actual) > 1e-6 then
    Alcotest.failf "%s: expected %.6f, got %.6f" msg expected actual

(* A small world: engine + topology + n attached hosts. *)
type world = {
  engine : Sim.Engine.t;
  topo : Sim.Topology.t;
  net : Transport.Netstack.t;
  stacks : Transport.Netstack.stack array;
}

let make_world ?(hosts = 3) ?drop_probability () =
  let engine = Sim.Engine.create () in
  let topo = Sim.Topology.create () in
  let net = Transport.Netstack.create ?drop_probability engine topo in
  let stacks =
    Array.init hosts (fun i ->
        Transport.Netstack.attach net (Sim.Topology.add_host topo (Printf.sprintf "h%d" i)))
  in
  { engine; topo; net; stacks }

(* Run [f] as a simulated process to completion and return its value. *)
let in_sim world f =
  let result = ref None in
  Sim.Engine.spawn world.engine ~name:"test" (fun () -> result := Some (f ()));
  Sim.Engine.run world.engine;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "test process blocked without completing"

let get_ok ~msg = function
  | Ok v -> v
  | Error _ -> Alcotest.failf "%s: unexpected Error" msg

let qtest = QCheck_alcotest.to_alcotest

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Floats that collide often, including ones that compare equal with
   different bits (0. and -0.) and ones the order puts first (nan). *)
let gen_dup_float =
  QCheck.Gen.(
    oneof
      [
        oneofl [ 0.0; -0.0; 1.0; 2.5; 100.0; Float.nan; Float.infinity ];
        map (fun i -> float_of_int i /. 4.0) (int_range 0 40);
      ])

(* The percentiles the reference-model properties compare. *)
let model_ps = [ 0.0; 1.0; 50.0; 99.0; 99.9; 100.0 ]

let global_count name = Obs.Metrics.value (Obs.Metrics.counter name)

(* One owner's count of a name, read through its metrics scope. *)
let net_count net = Obs.Metrics.read (Transport.Netstack.metrics net)
let meta_count mc = Obs.Metrics.read (Hns.Meta_client.metrics mc)
let cache_count c = Obs.Metrics.read (Hns.Cache.metrics c)
let secondary_count sec = Obs.Metrics.read (Dns.Secondary.metrics sec)

(* The owners' own counts of [name] must sum to exactly what the
   global counter moved by since [before]. *)
let check_fleet_sum name ~before scopes =
  check_int
    (name ^ ": fleet sum = registry delta")
    (global_count name - before)
    (List.fold_left (fun acc s -> acc + Obs.Metrics.read s name) 0 scopes)

(* Refreshes that moved a secondary's replica: full transfers plus
   IXFRs applied. *)
let secondary_transfers sec =
  secondary_count sec "dns.secondary.full_transfers"
  + secondary_count sec "dns.secondary.ixfr_applied"
