(** The meta-naming schema: how HNS management data is laid out in the
    modified BIND.

    "The HNS maintains additional meta-naming information needed for
    managing the global name space. This information consists of the
    names and binding information for each name service and each NSM,
    the names of all contexts, and the mappings from contexts to name
    services." Each datum is one UNSPEC record in the [hns-meta.]
    zone, keyed by a name that encodes the mapping:

    {v
    <context>.ctx.hns-meta.            -> name-service name
    <qclass>.<ns>.nsm.hns-meta.        -> NSM name
    <nsm>.nsmbind.hns-meta.            -> NSM location (host NAME + suite)
    <ns>.ns.hns-meta.                  -> name-service descriptor
    v}

    Name-service and NSM names are single labels (no dots); contexts
    may contain dots. NSM locations deliberately hold a host {e name},
    not an address — translating it is itself an HNS naming operation,
    which is why a cold FindNSM performs six data mappings. *)

val zone_origin : Dns.Name.t

(** A name-service instance known to the HNS. *)
type ns_info = {
  ns_type : string;      (** "bind", "clearinghouse", ... *)
  ns_host : string;      (** host name of the service *)
  ns_host_context : string;  (** context resolving that host name *)
  ns_port : int;
}

(** Where an NSM lives: binding information with a host name. *)
type nsm_info = {
  nsm_host : string;
  nsm_host_context : string;
  nsm_port : int;
  nsm_prog : int;
  nsm_vers : int;
  nsm_suite : Hrpc.Component.protocol_suite;
}

(** Raises [Invalid_argument] on a name service/NSM name containing
    ['.'] or ['!'], or empty. *)
val validate_simple_name : what:string -> string -> unit

(** {1 Meta-record keys} *)

val context_key : string -> Dns.Name.t

(** [<label>.ctx.hns-meta.] — the zone cut delegating every context
    named ["<x>.<label>"] to a partition primary. Raises like
    {!validate_simple_name}. *)
val partition_cut : string -> Dns.Name.t

(** [s<i>.<label>.nsglue.hns-meta.] — where the [i]-th server of
    partition [label] publishes its glue A record (outside the cut, so
    the delegation does not occlude its own glue). *)
val partition_glue_key : label:string -> int -> Dns.Name.t

val nsm_name_key : ns:string -> query_class:Query_class.t -> Dns.Name.t

(** [<qclass>.<ns>.nsmalt.hns-meta.] -> alternate NSM names (an array
    of strings) that can answer the class when the designated NSM is
    unreachable — the failover set. *)
val nsm_alternates_key : ns:string -> query_class:Query_class.t -> Dns.Name.t

val nsm_binding_key : string -> Dns.Name.t
val ns_info_key : string -> Dns.Name.t

(** {1 The batched FindNSM bundle}

    [<qclass>.<context>.bundle.hns-meta.] is a {e synthesized} name:
    nothing is stored under it. A bundle-aware meta server
    ({!Meta_bundle}) answers a T_UNSPEC query for it with the real
    records behind mappings 1–3 (context, NSM designation, NSM
    binding — plus the host-designation records for mappings 4–5 when
    available) and a status marker record at the bundle name itself.
    Old servers answer NXDOMAIN, which clients treat as "no bundle
    support" and fall back to per-mapping lookups. *)

val bundle_key : context:string -> query_class:Query_class.t -> Dns.Name.t

(** [parse_bundle_key key] recovers [(context, query_class)] from a
    bundle name; [None] if [key] is not one. *)
val parse_bundle_key : Dns.Name.t -> (string * string) option

(** Outcome marker carried in the bundle reply's status record. *)
type bundle_status = B_ok | B_no_context | B_no_nsm | B_no_binding

val bundle_status_ty : Wire.Idl.ty
val bundle_status_to_value : bundle_status -> Wire.Value.t
val bundle_status_of_value : Wire.Value.t -> bundle_status option

(** {1 Wire shapes stored in UNSPEC records} *)

val string_ty : Wire.Idl.ty

(** Shape of an alternates record: array of NSM names. *)
val nsm_alternates_ty : Wire.Idl.ty

val ns_info_ty : Wire.Idl.ty
val nsm_info_ty : Wire.Idl.ty
val ns_info_to_value : ns_info -> Wire.Value.t
val ns_info_of_value : Wire.Value.t -> ns_info
val nsm_info_to_value : nsm_info -> Wire.Value.t
val nsm_info_of_value : Wire.Value.t -> nsm_info

(** Shape of a cached host-address mapping (mapping six). *)
val host_addr_ty : Wire.Idl.ty

(** {1 Host-address prefetch rows}

    [<context>!<host>.addr.hns-meta.] names a piggybacked
    [HostAddress] answer carried in a bundle reply ({!Meta_bundle}'s
    resolve-tail prefetch): nothing is stored under it in the zone.
    The context and host share one combined label split at ['!'],
    which {!validate_simple_name} reserves, so dotted contexts and
    dotted host names stay unambiguous. *)

val host_addr_key : context:string -> host:string -> Dns.Name.t

(** [parse_host_addr_key key] recovers [(context, host)]; [None] if
    [key] is not a prefetch name. *)
val parse_host_addr_key : Dns.Name.t -> (string * string) option

(** [ty_of_key key] infers the stored shape from the key's marker
    label — used when seeding the cache from a zone transfer. *)
val ty_of_key : Dns.Name.t -> Wire.Idl.ty option

(** {1 Cache keys} *)

val cache_key : Dns.Name.t -> string
val host_addr_cache_key : context:string -> host:string -> string
