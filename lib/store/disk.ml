type cost_model = {
  seek_ms : float;
  per_byte_ms : float;
  fsync_ms : float;
}

(* A Fujitsu-Eagle-class server drive of the paper's era: ~18 ms
   average seek, ~1.8 MB/s sustained transfer (0.00055 ms/byte), and
   8.3 ms of rotational settle to drain the write cache. *)
let default_cost = { seek_ms = 18.0; per_byte_ms = 0.00055; fsync_ms = 8.3 }
let free_cost = { seek_ms = 0.0; per_byte_ms = 0.0; fsync_ms = 0.0 }

type crash_fate = Keep_none | Keep of int

type fault_oracle = now:float -> file:string -> pending:int -> crash_fate

type file = {
  mutable durable : string;
  pending : Buffer.t; (* written, not yet fsynced *)
}

type t = {
  dev_name : string;
  cost : cost_model;
  table : (string, file) Hashtbl.t;
  mutable head_at : string option; (* file under the head, None after sync *)
  mutable oracle : fault_oracle option;
  crashes : Obs.Metrics.counter;
  torn_writes : Obs.Metrics.counter;
}

let m_writes = Obs.Metrics.counter "store.disk.writes"
let m_reads = Obs.Metrics.counter "store.disk.reads"
let m_fsyncs = Obs.Metrics.counter "store.disk.fsyncs"
let m_bytes_written = Obs.Metrics.counter "store.disk.bytes_written"
let m_bytes_read = Obs.Metrics.counter "store.disk.bytes_read"
let m_seeks = Obs.Metrics.counter "store.disk.seeks"
let m_crashes = Obs.Metrics.counter "store.disk.crashes"
let m_torn = Obs.Metrics.counter "store.disk.torn_writes"
let m_io_ms = Obs.Metrics.histogram "store.disk.io_ms"

let create ?(name = "disk0") ?(cost = default_cost) () =
  {
    dev_name = name;
    cost;
    table = Hashtbl.create 16;
    head_at = None;
    oracle = None;
    crashes = Obs.Metrics.owned m_crashes;
    torn_writes = Obs.Metrics.owned m_torn;
  }

let name t = t.dev_name
let cost t = t.cost
let set_fault_oracle t o = t.oracle <- Some o
let clear_fault_oracle t = t.oracle <- None

(* Charge virtual milliseconds when running inside a simulated
   process; outside one (unit tests of pure logic) the charge is 0. *)
let charge ms =
  if ms > 0.0 then begin
    Obs.Metrics.observe m_io_ms ms;
    Sim.Engine.charge ms
  end

let get_file t file =
  match Hashtbl.find_opt t.table file with
  | Some f -> f
  | None ->
      let f = { durable = ""; pending = Buffer.create 256 } in
      Hashtbl.replace t.table file f;
      f

(* A seek is charged whenever the head has to move: first op, a
   different file than the last op touched, or right after a sync
   (the head parked over the metadata region). *)
let seek_charge t file =
  if t.head_at <> Some file then begin
    Obs.Metrics.incr m_seeks;
    t.head_at <- Some file;
    t.cost.seek_ms
  end
  else 0.0

let append t ~file data =
  let f = get_file t file in
  let off = String.length f.durable + Buffer.length f.pending in
  let cost =
    seek_charge t file +. (t.cost.per_byte_ms *. float_of_int (String.length data))
  in
  Buffer.add_string f.pending data;
  Obs.Metrics.incr m_writes;
  Obs.Metrics.add m_bytes_written (String.length data);
  charge cost;
  off

let fsync t ~file =
  let f = get_file t file in
  Obs.Metrics.incr m_fsyncs;
  if Buffer.length f.pending > 0 then begin
    f.durable <- f.durable ^ Buffer.contents f.pending;
    Buffer.clear f.pending
  end;
  (* The flush parks the head; the next append seeks back. *)
  t.head_at <- None;
  charge t.cost.fsync_ms

let read t ~file ~off ~len =
  let f = get_file t file in
  let avail = String.length f.durable in
  let off = min off avail in
  let len = max 0 (min len (avail - off)) in
  let data = String.sub f.durable off len in
  Obs.Metrics.incr m_reads;
  Obs.Metrics.add m_bytes_read len;
  charge (seek_charge t file +. (t.cost.per_byte_ms *. float_of_int len));
  data

let durable_contents t ~file =
  match Hashtbl.find_opt t.table file with Some f -> f.durable | None -> ""

let durable_size t ~file = String.length (durable_contents t ~file)

let size t ~file =
  match Hashtbl.find_opt t.table file with
  | Some f -> String.length f.durable + Buffer.length f.pending
  | None -> 0

let files t =
  Hashtbl.fold (fun name f acc -> if String.length f.durable > 0 || Buffer.length f.pending > 0 then name :: acc else acc) t.table []
  |> List.sort String.compare

let delete t ~file = Hashtbl.remove t.table file

let crash t =
  Obs.Metrics.incr t.crashes;
  let now = Sim.Engine.time () in
  (* Deterministic order: judge files sorted by name so a seeded
     oracle draws its randomness in a reproducible sequence. *)
  List.iter
    (fun file ->
      let f = Hashtbl.find t.table file in
      let pending = Buffer.length f.pending in
      if pending > 0 then begin
        let fate =
          match t.oracle with
          | Some oracle -> oracle ~now ~file ~pending
          | None -> Keep_none
        in
        (match fate with
        | Keep n when n > 0 ->
            let n = min n pending in
            f.durable <- f.durable ^ String.sub (Buffer.contents f.pending) 0 n;
            Obs.Metrics.incr t.torn_writes
        | Keep _ | Keep_none -> ());
        Buffer.clear f.pending
      end)
    (files t);
  t.head_at <- None

let metrics t = Obs.Metrics.scope [ t.crashes; t.torn_writes ]
