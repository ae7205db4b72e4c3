type change = Put of Rr.t | Del of Rr.t

type delta = { from_serial : int32; to_serial : int32; changes : change list }

(* Deltas are kept newest-first internally (cheap append); reads
   reverse. Retention is bounded two ways: by delta count and by an
   estimate of the bytes held, so a burst of fat updates cannot pin
   unbounded memory just because it fits the count bound. Each entry
   carries its size so truncation never re-measures. *)
type t = {
  max_deltas : int;
  max_bytes : int;
  mutable rev_deltas : (delta * int) list;
  mutable total_bytes : int;
  truncations : Obs.Metrics.counter;
}

let m_appends = Obs.Metrics.counter "dns.journal.appends"
let m_truncations = Obs.Metrics.counter "dns.journal.truncations"
let m_bytes = Obs.Metrics.gauge "dns.journal.bytes"

let create ?(max_deltas = 64) ?(max_bytes = max_int) () =
  if max_deltas < 1 then invalid_arg "Journal.create: max_deltas < 1";
  if max_bytes < 1 then invalid_arg "Journal.create: max_bytes < 1";
  {
    max_deltas;
    max_bytes;
    rev_deltas = [];
    total_bytes = 0;
    truncations = Obs.Metrics.owned m_truncations;
  }

let length t = List.length t.rev_deltas

(* Rough wire-ish size of a change: fixed record overhead plus the
   rendered name and rdata. An estimate is enough — the bound exists
   to cap memory, not to account bytes exactly. *)
let change_bytes = function
  | Put rr | Del rr ->
      12
      + String.length (Name.to_string rr.Rr.name)
      + String.length (Format.asprintf "%a" Rr.pp_rdata rr.Rr.rdata)

let delta_bytes d = 24 + List.fold_left (fun a c -> a + change_bytes c) 0 d.changes

let record t ~from_serial ~to_serial changes =
  let d = { from_serial; to_serial; changes } in
  let b = delta_bytes d in
  t.rev_deltas <- (d, b) :: t.rev_deltas;
  t.total_bytes <- t.total_bytes + b;
  Obs.Metrics.incr m_appends;
  let n = length t in
  if n > t.max_deltas || t.total_bytes > t.max_bytes then begin
    (* Shed oldest-first until under both bounds; the newest delta
       always survives even if it alone exceeds the byte bound. *)
    let rec shed count bytes = function
      | (_, b) :: (_ :: _ as rest)
        when count > t.max_deltas || bytes > t.max_bytes ->
          shed (count - 1) (bytes - b) rest
      | l -> (l, bytes, count)
    in
    let kept, bytes, kept_n = shed n t.total_bytes (List.rev t.rev_deltas) in
    let dropped = n - kept_n in
    if dropped > 0 then begin
      t.rev_deltas <- List.rev kept;
      t.total_bytes <- bytes;
      Obs.Metrics.add t.truncations dropped
    end
  end;
  Obs.Metrics.set m_bytes (float_of_int t.total_bytes)

let deltas t = List.rev_map fst t.rev_deltas

let bytes t = t.total_bytes

let since t ~serial =
  match t.rev_deltas with
  | ({ to_serial; _ }, _) :: _ when Int32.equal to_serial serial -> Some []
  | rev ->
      (* Walk newest → oldest collecting deltas until one starts at
         the requested serial; the collected list comes out oldest
         first. A break in the serial chain (shouldn't happen — every
         record starts where the previous ended) or running out of
         journal means we cannot bridge the gap. *)
      let rec collect acc expected_from = function
        | [] -> None
        | (d, _) :: rest ->
            if not (Int32.equal d.to_serial expected_from) then None
            else if Int32.equal d.from_serial serial then Some (d :: acc)
            else collect (d :: acc) d.from_serial rest
      in
      (match rev with
      | [] -> None
      | (newest, _) :: _ -> collect [] newest.to_serial rev)

let metrics t = Obs.Metrics.scope [ t.truncations ]

let apply_changes db changes =
  List.iter
    (fun change ->
      match change with
      | Put rr -> Db.add db rr
      | Del rr -> Db.remove_rr db rr.Rr.name rr.Rr.rdata)
    changes
