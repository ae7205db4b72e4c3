(** The Sun Yellow Pages (NIS) protocol: program numbers and
    signatures shared by {!Yp_server} and {!Yp_client}.

    YP is the third name-service type in this repository's federation
    (after BIND and the Clearinghouse): a flat keyed-map service over
    Sun RPC, program 100004 version 2, with the classic procedures
    DOMAIN, MATCH, FIRST and NEXT over maps like [hosts.byname]. *)

val program : int (* 100004 *)
val version : int (* 2 *)
val proc_domain : int (* 1 *)
val proc_match : int (* 3 *)
val proc_first : int (* 4 *)
val proc_next : int (* 5 *)

(** Well-known map names. *)
val map_hosts_byname : string

val domain_sign : Wire.Idl.signature
val match_sign : Wire.Idl.signature
val first_sign : Wire.Idl.signature
val next_sign : Wire.Idl.signature
