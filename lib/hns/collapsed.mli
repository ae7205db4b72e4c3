(** Ablation: the collapsed FindNSM the paper rejected.

    "While we recognize that the lookups made by FindNSM could be
    collapsed into fewer calls (e.g., by mapping the Context and Query
    Class directly to the Binding for the NSM), we chose to keep these
    mappings separate, because this allows more flexibility and
    requires less redundant information."

    This module implements the rejected design so the trade-off can be
    measured (see the [ablation-collapsed] bench): one meta record per
    (context, query class) holding a {e complete} binding — address
    included. Cold lookups are one remote mapping instead of six, but:

    - the records are denormalized: a name service shared by [k]
      contexts stores its NSM bindings [k] times over;
    - they embed network addresses, so moving an NSM (or its host
      changing address) invalidates every copy — reintroducing exactly
      the reregistration/staleness problem direct access avoids. *)

(** Write the collapsed record (denormalizing [nsm_name] + binding). *)
val register :
  Meta_client.t ->
  context:string ->
  query_class:Query_class.t ->
  nsm_name:string ->
  Hrpc.Binding.t ->
  (unit, Errors.t) result

(** Precompute collapsed records for every (context, query class) the
    separate-mapping FindNSM can resolve; returns how many were
    written. This is the "reregistration sweep" the collapsed design
    needs whenever anything moves. *)
val materialize :
  Find_nsm.t ->
  contexts:string list ->
  query_classes:Query_class.t list ->
  (int, Errors.t) result

(** The collapsed FindNSM: a single data mapping. *)
val find :
  Meta_client.t ->
  context:string ->
  query_class:Query_class.t ->
  (string * Hrpc.Binding.t, Errors.t) result
