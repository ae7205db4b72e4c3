(** Store-and-forward message transfer over the HCS mail service.

    Real internet mail is queued: the submitting host accepts the
    message immediately and a background transfer agent delivers it,
    retrying through site outages and bouncing what can never be
    delivered. This MTA runs as a simulated process over {!Mail}; the
    mailbox site for each message is found through the HNS at delivery
    time — so a recipient whose mailbox {e moves} between retries is
    delivered to the new site, direct access doing the forwarding. *)

type outcome = Delivered of Hns.Hns_name.t | Bounced of string

type t

(** [create hns ~from ?retry_interval_ms ?max_attempts ()] — transient
    failures are retried every [retry_interval_ms] (default 30 s) up
    to [max_attempts] (default 8), then bounced. *)
val create :
  Hns.Client.t ->
  from:string ->
  ?retry_interval_ms:float ->
  ?max_attempts:int ->
  unit ->
  t

(** Queue a message; returns immediately. *)
val submit : t -> recipient:Hns.Hns_name.t -> subject:string -> body:string -> unit

(** Messages waiting (including ones between retries). *)
val queue_length : t -> int

(** (recipient, reason) for every bounce so far, oldest first. *)
val bounces : t -> (Hns.Hns_name.t * string) list

(** This MTA's own counts: [services.mta.delivered] (messages
    delivered) and [services.mta.attempts] (delivery attempts, retries
    included, for observing retry behaviour). *)
val metrics : t -> Obs.Metrics.scope

(** Spawn the queue runner. In-process only. *)
val start : t -> unit

val stop : t -> unit
