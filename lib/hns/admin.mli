(** Registration: how system types join the confederation.

    "Adding a new system type simply requires building NSMs for those
    queries to be supported and registering their existence with the
    HNS." Registration writes meta-naming records through the dynamic
    update path of the modified BIND; "registering an NSM with the HNS
    extends the functionality of all machines at once", unlike
    relinking locally-linked clients. *)

(** Declare a name service instance. *)
val register_name_service :
  Meta_client.t -> name:string -> Meta_schema.ns_info -> (unit, Errors.t) result

(** Map a context onto (part of) a name service's name space. *)
val register_context :
  Meta_client.t -> context:string -> ns:string -> (unit, Errors.t) result

(** Delegate the ["<x>.<label>"] context subtree to a partition:
    writes NS records at {!Meta_schema.partition_cut}[ label] naming
    [primary :: replicas] ({e primary first} — the first glue address
    in a referral is the partition's write target) plus their glue A
    records, in one transaction against the root zone. The records'
    TTL, 300 s, bounds how long clients cache the cut. All servers
    must share the meta deployment's port: referral glue carries only
    IPs. *)
val register_partition :
  Meta_client.t ->
  label:string ->
  primary:Transport.Address.t ->
  replicas:Transport.Address.t list ->
  unit ->
  (unit, Errors.t) result

val remove_context : Meta_client.t -> context:string -> (unit, Errors.t) result

(** Convenience: register an HRPC server as the NSM for
    (ns, query class) under [name], deriving the location record from
    the server's binding. [host]/[host_context] name where it runs. *)
val register_nsm_server :
  Meta_client.t ->
  name:string ->
  ns:string ->
  query_class:Query_class.t ->
  host:string ->
  host_context:string ->
  Hrpc.Binding.t ->
  (unit, Errors.t) result

(** As {!register_nsm_server}, but appended to the failover set
    consulted when the designated NSM is unreachable (idempotent per
    name) instead of the designation mapping. *)
val register_alternate_nsm_server :
  Meta_client.t ->
  name:string ->
  ns:string ->
  query_class:Query_class.t ->
  host:string ->
  host_context:string ->
  Hrpc.Binding.t ->
  (unit, Errors.t) result
