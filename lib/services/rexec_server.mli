(** A remote-computation server — the third HCS core network service.

    Executes named commands from a registered table (this is a
    simulation; the "commands" are closures that may charge virtual
    CPU). Procedures (program {!prog}): 1 exec. *)

val prog : int
val vers : int
val proc_exec : int

type outcome = { status : int; output : string }

val exec_sign : Wire.Idl.signature

type t

(** Serves over the Sun RPC suite. *)
val create : Transport.Netstack.stack -> ?port:int -> unit -> t

(** [register_command t name ~cpu_ms f] — [f args] produces output;
    executing charges [cpu_ms] of virtual CPU. *)
val register_command :
  t -> string -> cpu_ms:float -> (string list -> string) -> unit

val start : t -> unit
