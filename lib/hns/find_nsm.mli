(** FindNSM: the primary HNS function.

    Maps (context, query class) to the HRPC binding of the NSM that
    can answer, via the paper's sequence of mappings:

    + context → name-service name
    + (name-service name, query class) → NSM name
    + NSM name → binding information — which holds the NSM's host
      {e name}, so completing it is itself an HNS naming operation:
    + (host's context) → name-service name
    + (that name service, HostAddress) → host-address NSM name
    + host name → network address, via a host-address NSM {e linked
      directly with the HNS} ("further recursion is avoided by linking
      instances of the NSMs that perform this mapping directly with
      the HNS, so that their network addresses need not be found").

    Six data mappings; each is a remote call on a cache miss, which is
    why caching dominates colocation in Table 3.1.

    Two cold-path optimizations live here:

    - {b Batched meta query.} When the meta client has bundles enabled
      and the meta server supports them, mappings 1–3 collapse into a
      single round trip ({!Meta_client.find_nsm_bundle}); the reply
      also carries the records behind mappings 4–5, so a cold FindNSM
      costs one meta exchange plus the host-address NSM call. Old
      servers answer NXDOMAIN and the per-mapping walk runs unchanged.
    - {b Request coalescing.} Concurrent {!find}s for the same
      (context, query class) on one instance share a single in-flight
      lookup (a singleflight table): followers block on the leader's
      answer instead of stampeding the meta server, counted in
      [hns.find_nsm.coalesced]. Sequential callers are unaffected —
      the table entry is removed before the leader returns. *)

type resolved = {
  ns_name : string;       (** which name service owns the context *)
  nsm_name : string;      (** which NSM was designated *)
  binding : Hrpc.Binding.t;  (** how to call it *)
}

type t

val create : meta:Meta_client.t -> unit -> t

val meta : t -> Meta_client.t

(** Link a host-address NSM instance under its registered NSM name. *)
val link_hostaddr_nsm : t -> name:string -> Nsm_intf.impl -> unit

(** The FindNSM call. *)
val find :
  t -> context:string -> query_class:Query_class.t -> (resolved, Errors.t) result

(** {1 Failover}

    The meta database may register alternate NSMs for a
    (name service, query class) pair ({!Meta_schema.nsm_alternates_key}).
    When a call on the designated NSM's binding fails, the client
    resolves each alternate in turn — each attempt counted in the
    [hns.find_nsm.failovers] metric. *)

(** Resolve every registered alternate for [resolved]'s name service
    and [query_class], excluding [resolved] itself. Alternates that
    cannot currently be resolved (e.g. their host is down too) are
    silently skipped; an unreachable meta database yields []. *)
val failover_candidates :
  t -> resolved -> query_class:Query_class.t -> resolved list

(** Count one failover attempt in [hns.find_nsm.failovers]. *)
val note_failover : unit -> unit
