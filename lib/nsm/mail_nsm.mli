(** NSMs for the MailboxLocation query class: the site holding a named
    user's mailbox, for the HCS mail service. *)

val create_bind :
  Transport.Netstack.stack ->
  bind_server:Transport.Address.t ->
  ?cache:Hns.Cache.t ->
  ?per_query_ms:float ->
  unit ->
  Text_nsm.t
