(** Prefix tables (Welch & Ousterhout 1986) — the "search path"
    alternative to a name service that the paper's Section 2 declines:
    locating data by matching name prefixes in a client-side table,
    falling back to broadcast on a miss.

    Each client holds (prefix → binding) entries, longest match wins;
    a miss broadcasts a locate for the name and caches whatever server
    claims the prefix. The drawbacks the paper alludes to are visible
    in the tests: the table is per-client state that must be learned
    or configured, matching is purely syntactic, and the fallback is
    the broadcast whose cost {!Broadcast_locate} measures. *)

type t

val create : Transport.Netstack.stack -> t

(** Install a static entry ([prefix] is a ['/']-separated path). *)
val mount : t -> prefix:string -> Hrpc.Binding.t -> unit

(** Longest-prefix match from the local table only. *)
val lookup_local : t -> string -> (string * Hrpc.Binding.t) option

(** [locate t path] — local table first; on a miss, broadcast a locate
    for the path's first component (interpreters from
    {!Broadcast_locate} answer) and cache the learned prefix.
    [Ok None] when nobody claims it. *)
val locate :
  t -> string -> ((string * Hrpc.Binding.t) option, Rpc.Control.error) result

(** Broadcasts performed (the fallback cost). *)
val broadcasts : t -> int
