(** Query classes.

    A query class names the kind of data a query returns ("the type of
    data to be returned"); every NSM for one query class implements
    the identical client interface, so the client can call whichever
    NSM the HNS designates without knowing the underlying name
    service. Query classes are open-ended — adding one requires no
    change to the HNS — so they are plain strings with some well-known
    constants. *)

type t = string

(** HRPC binding information for a named service — the paper's first
    application. *)
val hrpc_binding : t

(** Host name to network address — the query class FindNSM itself
    recurses on. *)
val host_address : t

(** Location of a file in the filing network service. *)
val file_location : t

(** Mailbox location for the mail network service. *)
val mailbox_location : t

(** Query classes must be nonempty and free of ['.'] and ['!'] (they
    are embedded in meta-BIND names and HNS names). *)
val validate : t -> unit

val equal : t -> t -> bool
