(** Domain names.

    A name is a sequence of labels, most-specific first, as in
    ["fiji"; "cs"; "washington"; "edu"]. Comparison is
    case-insensitive (names are folded to lowercase on construction,
    per DNS semantics). The root is the empty sequence. *)

type t

val root : t

(** [of_string "fiji.cs.washington.edu"] — a trailing dot is
    accepted and ignored. Raises [Invalid_argument] on empty labels
    ("a..b"), labels over 63 bytes, or names over 255 bytes. *)
val of_string : string -> t

val to_string : t -> string

(** Labels, most-specific first. *)
val labels : t -> string list

val of_labels : string list -> t

(** [of_folded_labels labels] is [of_labels labels] for labels already
    checked and folded: each 1–63 bytes long with no upper-case ASCII
    byte, and the name at most 255 bytes. It checks and copies nothing,
    so the list is shared, not copied. The wire decoder, which checks
    each label as it reads it, is its caller. *)
val of_folded_labels : string list -> t
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val is_root : t -> bool
val label_count : t -> int

(** [prepend label t] makes [label.t]. *)
val prepend : string -> t -> t

(** [parent t] drops the most-specific label; [None] for the root. *)
val parent : t -> t option

(** [is_subdomain ~of_ t]: is [t] equal to or below [of_]? *)
val is_subdomain : of_:t -> t -> bool

(** [append a b] concatenates: [append (of_string "fiji") suffix]. *)
val append : t -> t -> t

val pp : Format.formatter -> t -> unit
