type t = {
  net : Transport.Netstack.t;
  plan : Plan.t;
  rng : Sim.Rng.t;
  mutable trace : string list; (* newest first *)
  mutable installed : bool;
  injected : Obs.Metrics.counter;
}

let m_faults = Obs.Metrics.counter "chaos.injector.faults_injected"
let m_drops = Obs.Metrics.counter "chaos.injector.packet_drops"
let m_delays = Obs.Metrics.counter "chaos.injector.packet_delays"
let m_corruptions = Obs.Metrics.counter "chaos.injector.packet_corruptions"

let active ~now ~from_ms ~until_ms = now >= from_ms && now < until_ms

(* An empty host list matches everything. *)
let matches hosts name = hosts = [] || List.mem name hosts

let record t ~now fmt =
  Printf.ksprintf
    (fun detail ->
      Obs.Metrics.incr t.injected;
      t.trace <- Printf.sprintf "%10.3f %s" now detail :: t.trace)
    fmt

let flip_byte rng payload =
  let len = String.length payload in
  if len = 0 then payload
  else begin
    let i = Sim.Rng.int rng len in
    let b = Bytes.of_string payload in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xFF));
    Bytes.to_string b
  end

(* Judge one packet against every active fault. A drop wins outright;
   otherwise delay surcharges accumulate and at most one corruption is
   applied. Every decision is traced and counted. *)
let judge t ~now ~src ~dst ~payload =
  let sname = src.Sim.Topology.hostname and dname = dst.Sim.Topology.hostname in
  let drop = ref None in
  let extra = ref 0.0 in
  let corrupted = ref None in
  List.iter
    (fun fault ->
      if !drop = None then
        match (fault : Plan.fault) with
        | Plan.Crash { host; from_ms; until_ms } ->
            if active ~now ~from_ms ~until_ms && (sname = host || dname = host)
            then drop := Some (Printf.sprintf "crash:%s" host)
        | Plan.Partition { group_a; group_b; from_ms; until_ms } ->
            if
              active ~now ~from_ms ~until_ms
              && ((matches group_a sname && matches group_b dname)
                 || (matches group_b sname && matches group_a dname))
            then drop := Some "partition"
        | Plan.Latency { hosts; from_ms; until_ms; add_ms; ramp } ->
            if
              active ~now ~from_ms ~until_ms
              && (matches hosts sname || matches hosts dname)
            then begin
              let add =
                if ramp then add_ms *. ((now -. from_ms) /. (until_ms -. from_ms))
                else add_ms
              in
              extra := !extra +. add
            end
        | Plan.Corrupt { dst_hosts; from_ms; until_ms; probability } -> (
            match payload with
            | Some p
              when active ~now ~from_ms ~until_ms
                   && matches dst_hosts dname
                   && !corrupted = None
                   && Sim.Rng.float t.rng 1.0 < probability ->
                corrupted := Some (flip_byte t.rng p)
            | _ -> ())
        | Plan.Torn_write _ -> (* judged by the disk injector *) ())
    t.plan;
  match !drop with
  | Some reason ->
      record t ~now "drop %s->%s %s" sname dname reason;
      Obs.Metrics.incr m_drops;
      Transport.Netstack.Fault_drop
  | None ->
      let delayed = !extra > 0.0 in
      if delayed then begin
        record t ~now "delay %s->%s +%.3fms" sname dname !extra;
        Obs.Metrics.incr m_delays
      end;
      (match !corrupted with
      | Some _ ->
          record t ~now "corrupt %s->%s" sname dname;
          Obs.Metrics.incr m_corruptions
      | None -> ());
      if delayed || !corrupted <> None then
        Transport.Netstack.Fault_deliver
          { extra_delay_ms = !extra; payload = !corrupted }
      else Transport.Netstack.Fault_pass

let install ?(seed = 0xC4A05L) plan net =
  let t =
    {
      net;
      plan;
      rng = Sim.Rng.create ~seed;
      trace = [];
      installed = true;
      injected = Obs.Metrics.owned m_faults;
    }
  in
  Transport.Netstack.set_fault_oracle net (fun ~now ~src ~dst ~payload ->
      judge t ~now ~src ~dst ~payload);
  t

let uninstall t =
  if t.installed then begin
    t.installed <- false;
    Transport.Netstack.clear_fault_oracle t.net
  end

let trace t = List.rev t.trace
let metrics t = Obs.Metrics.scope [ t.injected ]
let plan t = t.plan

(* --- disk faults ---------------------------------------------------- *)

let m_torn = Obs.Metrics.counter "chaos.injector.torn_writes"

type disk_injector = {
  disk : Store.Disk.t;
  disk_plan : Plan.t;
  disk_rng : Sim.Rng.t;
  mutable disk_trace : string list; (* newest first *)
  mutable disk_installed : bool;
}

(* Consulted once per unsynced file at crash time, in sorted file
   order, so a given plan, seed, and workload tear the same bytes
   every run. *)
let judge_crash d ~now ~file ~pending =
  let fate = ref Store.Disk.Keep_none in
  List.iter
    (fun fault ->
      match (fault : Plan.fault) with
      | Plan.Torn_write { host; from_ms; until_ms; probability }
        when !fate = Store.Disk.Keep_none
             && active ~now ~from_ms ~until_ms
             && host = Store.Disk.name d.disk
             && pending > 0
             && Sim.Rng.float d.disk_rng 1.0 < probability ->
          let keep = 1 + Sim.Rng.int d.disk_rng pending in
          Obs.Metrics.incr m_faults;
          Obs.Metrics.incr m_torn;
          d.disk_trace <-
            Printf.sprintf "%10.3f torn %s:%s keep=%d/%d" now
              (Store.Disk.name d.disk) file keep pending
            :: d.disk_trace;
          fate := Store.Disk.Keep keep
      | _ -> ())
    d.disk_plan;
  !fate

let install_disk ?(seed = 0xC4A05L) plan disk =
  let d =
    {
      disk;
      disk_plan = plan;
      disk_rng = Sim.Rng.create ~seed;
      disk_trace = [];
      disk_installed = true;
    }
  in
  Store.Disk.set_fault_oracle disk (fun ~now ~file ~pending ->
      judge_crash d ~now ~file ~pending);
  d

let uninstall_disk d =
  if d.disk_installed then begin
    d.disk_installed <- false;
    Store.Disk.clear_fault_oracle d.disk
  end

let disk_trace d = List.rev d.disk_trace
