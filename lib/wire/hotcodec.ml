(* Shared substrate for hand-coded codecs on the hot HNS record
   shapes.  The shape-specific encoders live next to the schema they
   serve (Hns.Hot_codec); this module owns what they share: the buffer
   pool, the wire.codec.* accounting, the calibrated hand-marshalling
   cost model, and XDR-framing primitives that guarantee the hand
   codecs stay byte-identical to the Generic_marshal/Xdr wire form. *)

(* --- accounting ----------------------------------------------------- *)

let m_hand_encodes = Obs.Metrics.counter "wire.codec.hand_encodes"
let m_hand_decodes = Obs.Metrics.counter "wire.codec.hand_decodes"
let m_fallbacks = Obs.Metrics.counter "wire.codec.generic_fallbacks"
let m_encode_bytes = Obs.Metrics.counter "wire.codec.encode_bytes"
let m_decode_bytes = Obs.Metrics.counter "wire.codec.decode_bytes"
let m_pool_hits = Obs.Metrics.counter "wire.codec.pool_hits"
let m_pool_misses = Obs.Metrics.counter "wire.codec.pool_misses"
let m_value_allocs = Obs.Metrics.counter "wire.codec.value_materializations"

let count_encode ~bytes =
  Obs.Metrics.incr m_hand_encodes;
  Obs.Metrics.add m_encode_bytes bytes

let count_decode ~bytes =
  Obs.Metrics.incr m_hand_decodes;
  Obs.Metrics.add m_decode_bytes bytes

let count_fallback () = Obs.Metrics.incr m_fallbacks
let count_value_materialization () = Obs.Metrics.incr m_value_allocs
let hand_decodes () = Obs.Metrics.value m_hand_decodes
let value_materializations () = Obs.Metrics.value m_value_allocs

(* --- cost model ----------------------------------------------------- *)

(* Calibrated to the paper's hand-coded marshalling band: 0.65 ms for a
   single resource record and 2.6 ms for six (Table 3.2), a straight
   line through (1, 0.65) and (6, 2.6). *)
type cost_model = { per_call_ms : float; per_record_ms : float }

let cost m ~records = m.per_call_ms +. (m.per_record_ms *. float records)

(* --- buffer pool ---------------------------------------------------- *)

(* A tiny free-list of writers.  Borrowed writers keep whatever
   capacity they grew to, so after warm-up a batch of encodes reuses
   one backing store instead of allocating per record (the same trick
   generated stubs can't play: each stub call builds its own
   intermediate tree and buffer). *)
type pool = { mutable free : Bytebuf.Wr.t list }

let create_pool () = { free = [] }

let borrow p =
  match p.free with
  | w :: rest ->
      p.free <- rest;
      Obs.Metrics.incr m_pool_hits;
      Bytebuf.Wr.clear w;
      w
  | [] ->
      Obs.Metrics.incr m_pool_misses;
      Bytebuf.Wr.create ~initial:128 ()

let give_back p w =
  p.free <- w :: p.free

(* Hand-rolled instead of [Fun.protect]: this wraps every single hot
   encode, and protect's closure allocation plus Finally_raised
   wrapping is measurable at that grain. *)
let with_wr p f =
  let w = borrow p in
  match f w with
  | v ->
      give_back p w;
      v
  | exception e ->
      give_back p w;
      raise e

(* A process-wide pool for callers with no natural batch scope (e.g.
   the server-side bundle synthesizer encoding one marker record). *)
let shared_pool = create_pool ()

(* --- XDR framing primitives ----------------------------------------- *)

(* These mirror Wire.Xdr exactly (u32 length + bytes + pad to 4 for
   strings; enums and uints as big-endian u32) so hand-codec output
   interops with old servers that decode via Generic_marshal. *)

let put_string32 w s =
  Bytebuf.Wr.u32 w (Int32.of_int (String.length s));
  Bytebuf.Wr.bytes w s;
  Bytebuf.Wr.pad_to w 4

let get_string32 r =
  let n = Int32.to_int (Bytebuf.Rd.u32 r) in
  if n < 0 || n > Bytebuf.Rd.remaining r then raise Bytebuf.Truncated;
  let s = Bytebuf.Rd.bytes r n in
  Bytebuf.Rd.align r 4;
  s

let put_u32 = Bytebuf.Wr.u32
let get_u32 = Bytebuf.Rd.u32
