(** The sendmail alternative: rewriting rules over name syntax.

    Section 4: "Sendmail uses rewriting rules to describe how to parse
    heterogeneous mail names. ... First, sendmail centralizes the
    understanding of mail naming in a single component (which is
    replicated on each host) ... Second, sendmail depends on being
    able to discern naming semantics based on the syntactic structure
    of names."

    A miniature of that machinery: ordered rules whose patterns match
    address {e syntax} and rewrite toward a (network, mailbox-site)
    decision. Enough to route classic forms —

    {v
    user@host.uucp      -> uucp relay
    host!user           -> uucp bang path
    user@host.arpa      -> arpanet
    user.registry@grape -> grapevine
    v}

    — and enough to exhibit both drawbacks: every host's ruleset must
    be updated when a network type arrives, and syntactically
    ambiguous names route on their spelling, not their semantics. *)

type decision = { network : string; site : string; user : string }

(** A rule: match an address shape, produce a decision or a rewrite.
    Patterns are token sequences; ["$1"]..["$9"] capture. *)
type rule

(** [rewrite_rule ~pattern ~into] — on match, rewrite and re-run the
    ruleset (at most 16 iterations, like sendmail's loop guard). *)
val rewrite_rule : pattern:string -> into:string -> rule

(** [resolve_rule ~pattern ~network ~site ~user] — on match, route. *)
val resolve_rule : pattern:string -> network:string -> site:string -> user:string -> rule

type t

(** Build a ruleset; order matters, first match wins. *)
val create : rule list -> t

(** Route one address. [Error] is an unparsable address. *)
val route : t -> string -> (decision, string) result

(** The classic 1987 ruleset used by tests and benches. *)
val classic : unit -> t
