let frame_magic = 0x57A1

let m_appends = Obs.Metrics.counter "store.wal.appends"
let m_commits = Obs.Metrics.counter "store.wal.group_commits"
let m_replayed = Obs.Metrics.counter "store.wal.replayed_records"
let m_torn = Obs.Metrics.counter "store.wal.torn_records"
let m_compactions = Obs.Metrics.counter "store.wal.compactions"
let m_bytes = Obs.Metrics.gauge "store.wal.bytes"
let m_ratio = Obs.Metrics.gauge "store.wal.compaction_ratio"
let m_append_ms = Obs.Metrics.histogram "store.wal.append_ms"
let m_batch = Obs.Metrics.histogram "store.wal.commit_records"

(* --- CRC-32 (IEEE 802.3), table-driven ------------------------------ *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      let i =
        Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl)
      in
      c := Int32.logxor table.(i) (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xFFFFFFFFl

(* --- framing (Wire.Bytebuf primitives) ------------------------------ *)

let frame payload =
  let wr = Wire.Bytebuf.Wr.create ~initial:(String.length payload + 10) () in
  Wire.Bytebuf.Wr.u16 wr frame_magic;
  Wire.Bytebuf.Wr.u32 wr (Int32.of_int (String.length payload));
  Wire.Bytebuf.Wr.u32 wr (crc32 payload);
  Wire.Bytebuf.Wr.bytes wr payload;
  Wire.Bytebuf.Wr.contents wr

(* One frame off the reader; [None] on a short, unmagiced, or
   CRC-failing frame — the torn tail. *)
let read_frame rd =
  match
    let magic = Wire.Bytebuf.Rd.u16 rd in
    if magic <> frame_magic then None
    else
      let len = Int32.to_int (Wire.Bytebuf.Rd.u32 rd) in
      if len < 0 || len > Wire.Bytebuf.Rd.remaining rd - 4 then None
      else
        let crc = Wire.Bytebuf.Rd.u32 rd in
        let payload = Wire.Bytebuf.Rd.bytes rd len in
        if Int32.equal (crc32 payload) crc then Some payload else None
  with
  | v -> v
  | exception Wire.Bytebuf.Truncated -> None

(* --- the log -------------------------------------------------------- *)

type t = {
  disk : Disk.t;
  base : string;
  group_window_ms : float;
  segment_bytes : int;
  mutable seg_index : int;
  mutable total_bytes : int; (* framed bytes across live segments *)
  mutable pending_commit : unit Sim.Engine.Ivar.ivar option;
  mutable batch_size : int;
  mutable dirty : string list; (* files awaiting the group fsync *)
  mutable compacting : unit Sim.Engine.Ivar.ivar option;
  mutable compaction_gen : int;
  appends : Obs.Metrics.counter;
  group_commits : Obs.Metrics.counter;
}

let segment_file base i = Printf.sprintf "%s.%06d.wal" base i

(* Segments of [base] present on [disk]'s durable-or-pending image,
   in log order. *)
let segment_files disk ~base =
  let prefix = base ^ "." and suffix = ".wal" in
  List.filter
    (fun f ->
      String.length f > String.length prefix + String.length suffix
      && String.sub f 0 (String.length prefix) = prefix
      && String.sub f (String.length f - String.length suffix) (String.length suffix)
         = suffix)
    (Disk.files disk)

let seg_number ~base f =
  try
    int_of_string
      (String.sub f (String.length base + 1) (String.length f - String.length base - 5))
  with _ -> 0

let create ?(base = "wal") ?(group_window_ms = 2.0) ?(segment_bytes = 64 * 1024)
    disk =
  (* Resume numbering after any segments already on the device, so a
     writer re-created after recovery appends rather than clobbers. *)
  let seg_index =
    List.fold_left
      (fun acc f -> max acc (seg_number ~base f))
      0 (segment_files disk ~base)
  in
  let total_bytes =
    List.fold_left
      (fun acc f -> acc + Disk.size disk ~file:f)
      0 (segment_files disk ~base)
  in
  {
    disk;
    base;
    group_window_ms;
    segment_bytes;
    seg_index;
    total_bytes;
    pending_commit = None;
    batch_size = 0;
    dirty = [];
    compacting = None;
    compaction_gen = 0;
    appends = Obs.Metrics.owned m_appends;
    group_commits = Obs.Metrics.owned m_commits;
  }

let disk t = t.disk
let base t = t.base
let bytes t = t.total_bytes
let segments t = List.length (segment_files t.disk ~base:t.base)
let metrics t = Obs.Metrics.scope [ t.appends; t.group_commits ]

let current_segment t =
  let file = segment_file t.base t.seg_index in
  if Disk.size t.disk ~file >= t.segment_bytes then begin
    t.seg_index <- t.seg_index + 1;
    segment_file t.base t.seg_index
  end
  else file

let mark_dirty t file =
  if not (List.mem file t.dirty) then t.dirty <- file :: t.dirty

(* Capture the batch before any fsync sleeps: appends racing the flush
   start a fresh batch of their own rather than losing their dirty
   marks to this one's reset. *)
let flush t =
  let dirty = List.rev t.dirty in
  let batch = t.batch_size in
  t.dirty <- [];
  t.batch_size <- 0;
  List.iter (fun file -> Disk.fsync t.disk ~file) dirty;
  Obs.Metrics.incr t.group_commits;
  Obs.Metrics.observe m_batch (float_of_int batch)

(* Hold the caller at the door while a compaction pass is rewriting
   the log, so no new frame can land in a segment the pass is about to
   delete. Re-checks after waking: another pass may have started. *)
let rec await_compaction t =
  match t.compacting with
  | None -> ()
  | Some iv ->
      Sim.Engine.Ivar.read iv;
      await_compaction t

let append t payload =
  let t0 = Sim.Engine.time () in
  await_compaction t;
  let file = current_segment t in
  let framed = frame payload in
  let gen = t.compaction_gen in
  ignore (Disk.append t.disk ~file framed);
  Obs.Metrics.incr t.appends;
  if t.compaction_gen <> gen then
    (* A compaction pass ran while this write's time charge slept. The
       frame was buffered before the first yield, so the pass fsynced
       it, replayed it into the rewritten image, and deleted the
       segment it landed in: the record is already durable. Joining a
       group commit now would resurrect the deleted file and count the
       frame's bytes twice. *)
    ()
  else begin
    t.total_bytes <- t.total_bytes + String.length framed;
    Obs.Metrics.set m_bytes (float_of_int t.total_bytes);
    t.batch_size <- t.batch_size + 1;
    mark_dirty t file;
    match t.pending_commit with
    | Some iv ->
        (* Ride the open window: durable when the leader's fsync lands. *)
        Sim.Engine.Ivar.read iv
    | None -> (
        let iv = Sim.Engine.Ivar.create () in
        t.pending_commit <- Some iv;
        Sim.Engine.charge t.group_window_ms;
        t.pending_commit <- None;
        flush t;
        Sim.Engine.Ivar.fill iv ())
  end;
  Obs.Metrics.observe m_append_ms (Sim.Engine.time () -. t0)

type replay = { records : string list; torn_tail : bool; bytes_scanned : int }

let replay ?(base = "wal") disk =
  let files =
    List.sort
      (fun a b -> compare (seg_number ~base a) (seg_number ~base b))
      (segment_files disk ~base)
  in
  let records = ref [] in
  let torn = ref false in
  let scanned = ref 0 in
  (try
     List.iter
       (fun file ->
         let len = Disk.durable_size disk ~file in
         let data = Disk.read disk ~file ~off:0 ~len in
         scanned := !scanned + String.length data;
         let rd = Wire.Bytebuf.Rd.of_string data in
         while not (Wire.Bytebuf.Rd.at_end rd) do
           match read_frame rd with
           | Some payload ->
               records := payload :: !records;
               Obs.Metrics.incr m_replayed
           | None ->
               (* A torn or corrupt frame: everything beyond it is
                  unordered garbage; stop the whole replay here. *)
               torn := true;
               Obs.Metrics.incr m_torn;
               raise Exit
         done)
       files
   with Exit -> ());
  { records = List.rev !records; torn_tail = !torn; bytes_scanned = !scanned }

let compact t ~coalesce =
  (* One pass at a time; two passes deleting each other's segments
     would be as destructive as the append race the guard prevents. *)
  await_compaction t;
  (* Everything up to the guard below runs before the first yield
     (Disk only charges time on I/O calls), so this snapshot of the
     log is atomic: any frame a concurrent appender has started
     writing is already in some old segment's pending buffer, and no
     new frame can land once the guard is up. *)
  let before = t.total_bytes in
  let old_files =
    List.sort
      (fun a b -> compare (seg_number ~base:t.base a) (seg_number ~base:t.base b))
      (segment_files t.disk ~base:t.base)
  in
  t.dirty <- [];
  (* The rewritten log starts on a fresh segment number so readers can
     never confuse old and new images — bumped before the first yield
     so even a frame that slipped past the guard could only land on a
     segment this pass never deletes. *)
  t.seg_index <- t.seg_index + 1;
  let guard = Sim.Engine.Ivar.create () in
  t.compacting <- Some guard;
  t.compaction_gen <- t.compaction_gen + 1;
  Fun.protect
    ~finally:(fun () ->
      t.compacting <- None;
      Sim.Engine.Ivar.fill guard ())
    (fun () ->
      (* Make every old segment durable — not just the dirty list: an
         appender sleeping in its write's time charge has buffered its
         frame but not yet marked the file dirty. Replay then sees the
         complete log, pending tail included. *)
      List.iter (fun file -> Disk.fsync t.disk ~file) old_files;
      let { records; _ } = replay ~base:t.base t.disk in
      let kept = coalesce records in
      t.total_bytes <- 0;
      let written = ref [] in
      List.iter
        (fun payload ->
          let file = current_segment t in
          let framed = frame payload in
          ignore (Disk.append t.disk ~file framed);
          t.total_bytes <- t.total_bytes + String.length framed;
          if not (List.mem file !written) then written := file :: !written)
        kept;
      List.iter (fun file -> Disk.fsync t.disk ~file) (List.rev !written);
      (* Only once the new image is durable do the old segments go. *)
      List.iter (fun file -> Disk.delete t.disk ~file) old_files;
      Obs.Metrics.set m_bytes (float_of_int t.total_bytes);
      Obs.Metrics.incr m_compactions;
      let ratio =
        if t.total_bytes = 0 then if before = 0 then 1.0 else float_of_int before
        else float_of_int before /. float_of_int t.total_bytes
      in
      Obs.Metrics.set m_ratio ratio;
      ratio)
