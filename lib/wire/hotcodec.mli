(** Shared substrate for hand-coded codecs on the hot HNS record
    shapes (meta-bundle mappings, prefetch-tail HostAddress rows,
    journal deltas).

    The shape-specific encoders live with the schema they serve; this
    module owns the parts they share: a buffer pool with reuse across
    a batch, the [wire.codec.*] accounting, the calibrated hand-
    marshalling cost model (the paper's 0.65–2.6 ms band, vs the
    generated-stub 10.3–24.9 ms band in {!Generic_marshal.cost}), and
    XDR framing primitives that keep hand output byte-identical to the
    {!Xdr} wire form so old servers interop. *)

(** {1 Accounting}

    Counters registered as [wire.codec.*] (passing the
    {!Obs.Metrics.lint} structure check): encode/decode counts and
    bytes, pool hits/misses, generic fallbacks, and [Value]-tree
    materialisations — the last lets tests assert a decode path built
    {e no} intermediate tree. *)

val count_encode : bytes:int -> unit
val count_decode : bytes:int -> unit

(** A hot-path decode met an unknown/cold shape and fell back to
    {!Generic_marshal}. *)
val count_fallback : unit -> unit

(** A [Value] tree was materialised on a path the zero-copy decode is
    supposed to keep tree-free. *)
val count_value_materialization : unit -> unit

val hand_decodes : unit -> int
val value_materializations : unit -> int

(** {1 Cost model} *)

type cost_model = { per_call_ms : float; per_record_ms : float }

(** [cost m ~records] — virtual milliseconds to hand-marshal (or
    demarshal) a payload of [records] resource records. *)
val cost : cost_model -> records:int -> float

(** {1 Buffer pool} *)

type pool

(** [with_wr pool f] borrows a cleared writer (reusing a previously
    grown backing store when one is free — a pool hit), runs [f], and
    returns the writer to the pool. *)
val with_wr : pool -> (Bytebuf.Wr.t -> 'a) -> 'a

(** Process-wide pool for callers with no natural batch scope. *)
val shared_pool : pool

(** {1 XDR framing primitives}

    Byte-identical to {!Xdr}: strings as u32 length + bytes + pad to
    4; uints/enums as big-endian u32. *)

val put_string32 : Bytebuf.Wr.t -> string -> unit
val get_string32 : Bytebuf.Rd.t -> string
val put_u32 : Bytebuf.Wr.t -> int32 -> unit
val get_u32 : Bytebuf.Rd.t -> int32
