(** Shared client-side plumbing for the HCS network services.

    Every service client follows the same two-step dance the paper's
    software structure prescribes: an HNS query in a service-specific
    query class yields a {e location} string; importing a binding for
    the service program on that location yields a handle. This module
    owns the dance plus a per-client binding cache, so the service
    clients stay small. *)

type error =
  | Name_error of Hns.Errors.t      (** HNS/NSM failure *)
  | Call_error of Rpc.Control.error (** RPC failure to the service *)
  | Malformed_location of string    (** unparsable location record *)
  | Service_error of string         (** service-level refusal *)

val pp_error : Format.formatter -> error -> unit

type t

val create : Hns.Client.t -> t

(** [resolve_location t ~query_class ~key name] performs the HNS query
    and parses a ["key=value"] location record, interpreting the value
    as [context!host] or (defaulting the context to [name]'s) [host]. *)
val resolve_location :
  t ->
  query_class:Hns.Query_class.t ->
  key:string ->
  Hns.Hns_name.t ->
  (Hns.Hns_name.t, error) result

(** The raw location record, for services with richer formats. *)
val resolve_location_string :
  t ->
  query_class:Hns.Query_class.t ->
  Hns.Hns_name.t ->
  (string, error) result

(** Parse one [host-spec] (i.e. [context!host] or bare [host]). *)
val parse_host_spec :
  default_context:string -> string -> (Hns.Hns_name.t, error) result

(** [import t ~service host] imports (and caches) a binding for
    [service] on [host] through the HNS. *)
val import : t -> service:string -> Hns.Hns_name.t -> (Hrpc.Binding.t, error) result

(** One remote call with argument validation mapped into [error].
    TCP-transport bindings (Courier services) reuse a cached
    connection across calls. *)
val call :
  t ->
  Hrpc.Binding.t ->
  procnum:int ->
  sign:Wire.Idl.signature ->
  Wire.Value.t ->
  (Wire.Value.t, error) result
