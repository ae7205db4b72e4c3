(** Measurement and report-formatting helpers shared by the bench
    harness and the calibration tests. *)

(** A measured cell alongside its published target. *)
type cell = { label : string; paper_ms : float; measured_ms : float }

val cell : label:string -> paper_ms:float -> measured_ms:float -> cell

(** Relative error (measured - paper) / paper. *)
val relative_error : cell -> float

(** [within ~tolerance c] — |relative error| <= tolerance. *)
val within : tolerance:float -> cell -> bool

(** Render a paper-vs-measured table with per-row relative error. *)
val print_cells : title:string -> cell list -> unit

(** Render an arbitrary table: header row then rows, columns padded. *)
val print_table : title:string -> header:string list -> string list list -> unit

(** Run [trials] repetitions of a thunk back to back and collect
    virtual-time durations. Must run inside a simulated process. *)
val repeat_timed : trials:int -> (unit -> unit) -> Sim.Stats.t
