(** Stub-compiler-style generic marshalling, with its cost model.

    Section 3 of the paper reports a surprise: the HNS's BIND interface
    was generated from an interface description, and the generated
    marshalling routines — correct, but full of "overhead in procedure
    calls, indirect calls to marshalling routines, unnecessary dynamic
    memory allocation, and unnecessary levels of marshalling" — cost
    10–25 ms per lookup, versus 0.65–2.6 ms for the hand-coded BIND
    library routines (Table 3.2). Keeping cache entries marshalled
    therefore forfeited most of the cache's benefit.

    This module reproduces both halves:

    - {!marshal} and {!unmarshal} build an encoder/decoder pipeline by
      interpreting an {!Idl.ty} into a tree of closures, then run it on
      a fresh buffer — structurally the indirect-call
      shape of generated stub code (and functionally identical to the
      direct {!Data_rep} codecs, which property tests verify);
    - {!cost} is the calibrated virtual-time cost model, linear in the
      size of the value tree, with separate constants for the generated
      and hand-coded paths. Simulated services charge this cost to the
      virtual clock when they marshal. *)

val marshal : Data_rep.t -> Idl.ty -> Value.t -> string

val unmarshal : Data_rep.t -> Idl.ty -> string -> Value.t

(** {1 Cost model} *)

type cost_model = {
  per_call_ms : float;  (** fixed cost of entering the marshal path *)
  per_node_ms : float;  (** cost per node of the value tree *)
}

(** [cost m v] = [m.per_call_ms + m.per_node_ms * Value.node_count v]. *)
val cost : cost_model -> Value.t -> float
