(** A generic text-valued NSM, parameterized by backend.

    Several HCS network services need only a string of location
    information per name: the filing service maps names to file
    locations, the mail service maps user names to mailbox sites.
    In BIND that string lives in a TXT record; in the Clearinghouse,
    in an item property. {!File_nsm} and {!Mail_nsm} instantiate this
    module per query class. *)

type backend =
  | Bind of { server : Transport.Address.t }
      (** TXT record at the individual name *)
  | Ch of {
      server : Transport.Address.t;
      credentials : Clearinghouse.Ch_proto.credentials;
      domain : string;
      org : string;
      prop : int;
    }
      (** item property of the object named by the individual name *)

type t

(** Answers are cached for 600 s. *)
val create :
  Transport.Netstack.stack ->
  backend ->
  tag:string ->
  ?cache:Hns.Cache.t ->
  ?per_query_ms:float ->
  unit ->
  t

val impl : t -> Hns.Nsm_intf.impl

(** Export as a remote NSM ({!Nsm_common.serve}). *)
val serve : t -> prog:int -> ?service_overhead_ms:float -> unit -> Hrpc.Server.t
