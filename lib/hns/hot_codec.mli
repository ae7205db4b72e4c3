(** Hand-coded codecs for the hot HNS record shapes (meta-bundle
    mappings 1–3 + NSM host records, prefetch-tail HostAddress rows,
    journal-delta payloads), in the style of [Dns.Msg]'s encoders.

    Wire forms are byte-identical to the {!Wire.Generic_marshal} /
    {!Wire.Xdr} output for the same record, so servers and clients
    using either codec interop freely; decoders return [None] on any
    shape mismatch so callers can fall back to the generic path.
    Encoders reuse pooled buffers across a batch and account
    themselves under [wire.codec.*]. *)

val encode_string : string -> string
val decode_string : string -> string option

(** Prefetch-tail HostAddress rows: a bare XDR uint.  [decode] is the
    zero-copy path — four bytes to an [int32], no [Value] tree. *)
val encode_host_addr : int32 -> string

val decode_host_addr : string -> int32 option
val encode_bundle_status : Meta_schema.bundle_status -> string
val decode_bundle_status : string -> Meta_schema.bundle_status option

(** NSM binding records demarshalled straight into the schema record
    FindNSM consumes — no intermediate tree. *)
val encode_nsm_info : Meta_schema.nsm_info -> string

val decode_nsm_info : string -> Meta_schema.nsm_info option
val encode_ns_info : Meta_schema.ns_info -> string
val decode_ns_info : string -> Meta_schema.ns_info option
val encode_alternates : string list -> string
val decode_alternates : string -> string list option

(** [decode_hot hand ty bytes] decodes a record with the hand codec
    when one is configured ([hand] is [Some _]) and [ty] is a hot shape:
    a flat run of reads straight to the final cached {!Wire.Value.t},
    no {!Wire.Generic_marshal} interpreter. [None] sends the caller to
    its own generic decoder; when the hand codec was tried and rejected
    the bytes, the fallback is counted in
    [wire.codec.generic_fallbacks]. Each caller charges its own cost. *)
val decode_hot : Wire.Hotcodec.cost_model option -> Wire.Idl.ty -> string -> Wire.Value.t option

val encode_value : Wire.Idl.ty -> Wire.Value.t -> string option
