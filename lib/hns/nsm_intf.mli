(** The client-side NSM calling convention.

    All NSMs for a given query class present the identical interface:
    one [query] procedure whose argument is (service qualifier, HNS
    name) and whose result is a CHOICE of the query class's payload or
    not-found. This is what lets a client "call whichever NSM handles
    that query class for the specified context without having to know
    which name service will ultimately provide the response."

    An NSM may be a remote procedure (the normal case) or linked into
    the calling process — the colocation choice. Both forms share the
    same [Value.t -> Value.t] semantics so callers cannot tell them
    apart except by cost. *)

(** Every NSM exports procedure 1 of its own program number. *)
val query_procnum : int

(** Program numbers for NSM services are allocated from this base in
    registration order by convention (any number works; bindings are
    stored, not computed). *)
val nsm_prog_base : int

(** [query_sign ~payload_ty] — argument is
    [struct {service: string; hns_name}], result is
    [union (0: payload_ty | 1: void)]. *)
val query_sign : payload_ty:Wire.Idl.ty -> Wire.Idl.signature

(** Payload shapes of the built-in query classes. *)
val binding_payload_ty : Wire.Idl.ty    (* HRPCBinding *)

val host_address_payload_ty : Wire.Idl.ty  (* HostAddress: the IP *)
val text_payload_ty : Wire.Idl.ty          (* FileLocation, MailboxLocation *)

(** [payload_ty_of query_class] for the built-in classes; extensions
    supply their own. *)
val payload_ty_of : Query_class.t -> Wire.Idl.ty option

(** Unpack the standard argument inside an NSM implementation. *)
val parse_arg : Wire.Value.t -> string * Hns_name.t

(** Standard result constructors for NSM implementations. *)
val found : Wire.Value.t -> Wire.Value.t

val not_found : Wire.Value.t

(** A linked NSM instance. *)
type impl = Wire.Value.t -> Wire.Value.t

type access = Linked of impl | Remote of Hrpc.Binding.t

(** [call stack access ~payload_ty ~service ~hns_name] invokes the NSM
    locally or remotely; [Ok None] is not-found. [policy] governs the
    remote path's HRPC retries. *)
val call :
  ?policy:Rpc.Control.retry_policy ->
  Transport.Netstack.stack ->
  access ->
  payload_ty:Wire.Idl.ty ->
  service:string ->
  hns_name:Hns_name.t ->
  (Wire.Value.t option, Errors.t) result

(** Invoke a linked instance directly (no network stack involved).
    A local procedure call costs nothing on the virtual clock. *)
val call_linked :
  impl ->
  service:string ->
  hns_name:Hns_name.t ->
  (Wire.Value.t option, Errors.t) result
