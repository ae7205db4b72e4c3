(** The Clearinghouse server: a Courier RPC program over the object
    database, with per-access authentication and disk charges.

    The paper (footnote 5): "Clearinghouse accesses are slow because
    each access is authenticated, and virtually all data is retrieved
    from disk. In contrast, BIND does no authentication and keeps all
    its information in primary memory." [auth_ms] and [disk_ms] model
    exactly those two terms; with the calibrated defaults a remote
    name-to-address lookup costs about 156 ms end to end. *)

(** Mutations, as seen by the replication machinery. *)
type update_event =
  | Object_created of Ch_name.t
  | Object_deleted of Ch_name.t
  | Property_stored of Ch_name.t * Property.t
  | Member_added of Ch_name.t * int * Ch_name.t

type t

(** Listens on the well-known Clearinghouse port
    ({!Transport.Address.Well_known.clearinghouse}). *)
val create :
  Transport.Netstack.stack -> ?auth_ms:float -> ?disk_ms:float -> unit -> t

val addr : t -> Transport.Address.t
val db : t -> Ch_db.t

(** Register a principal; calls with unknown principals abort. *)
val add_user : t -> Ch_name.t -> password:string -> unit

val start : t -> unit

(** This server's own count: [clearinghouse.server.accesses] (calls
    authenticated and charged, successful or not). *)
val metrics : t -> Obs.Metrics.scope

(** Register a mutation observer (replication hooks). Called inside
    the serving process after the mutation applies locally. *)
val on_update : t -> (update_event -> unit) -> unit
