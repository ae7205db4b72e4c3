(** A per-site mailbox server for the HCS mail service.

    Each subsystem keeps its users' mailboxes on its own machines; the
    mail service finds the right site through the HNS (MailboxLocation
    query class) and delivers through HRPC.

    Procedures (program {!prog}): 1 deliver, 2 read, 3 count. *)

val prog : int
val vers : int
val proc_deliver : int
val proc_read : int

type message = { from : string; subject : string; body : string }

val message_to_value : message -> Wire.Value.t
val message_of_value : Wire.Value.t -> message
val deliver_sign : Wire.Idl.signature
val read_sign : Wire.Idl.signature

type t

(** Serves over the Sun RPC suite. *)
val create :
  Transport.Netstack.stack ->
  ?port:int ->
  ?io_ms:float ->
  unit ->
  t

(** Users must exist before delivery succeeds. *)
val add_user : t -> string -> unit

val mailbox : t -> user:string -> message list
val start : t -> unit
val stop : t -> unit
