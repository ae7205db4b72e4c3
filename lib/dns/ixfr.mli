(** Incremental zone transfer (RFC 1995 discipline).

    A client holding the zone at serial [s] sends an IXFR query whose
    authority section carries an SOA with serial [s]; the server
    answers from the zone's {!Journal} with only the changes between
    [s] and the current serial. When the journal has been truncated
    past [s] the server falls back to a full AXFR-style payload in
    the same response — one connection either way.

    On the wire an incremental response is delimited by the new SOA
    appearing first {e and} last; between the two SOAs each record is
    an ordered change, marked by its class: [C_in] is an addition,
    [C_none] a deletion — the same marker classes the dynamic-update
    encoding uses. A full-fallback response is a plain AXFR payload
    (SOA first, no trailing SOA), and a single-SOA response means the
    client is already current. *)

(** What the server sent back, classified. *)
type response =
  | Unchanged of Rr.soa  (** client's serial is current *)
  | Deltas of Rr.soa * Journal.change list
      (** new SOA + ordered changes to replay *)
  | Full of Rr.t list  (** AXFR fallback: SOA first, then the zone *)

(** {1 Wire encoding of a change}

    Shared with the durable store's on-disk delta format. *)

(** A change as an answer record: additions keep [C_in], deletions are
    marked [C_none]. *)
val rr_of_change : Journal.change -> Rr.t

(** [serial_soa origin serial] — an SOA record of which only the serial
    is meaningful: the one an IXFR request's authority section carries,
    and the durable store's delta and snapshot framing. *)
val serial_soa : Name.t -> int32 -> Rr.t

(** {1 Server side} *)

(** The serial the requester claims to hold: the first SOA in the
    request's authority section. [None] — malformed request, treat as
    a full-transfer ask. *)
val request_serial : Msg.t -> int32 option

(** [answers_for_zone zone ~serial] — the answer-section records for
    an IXFR response, or [`Fallback] when the journal cannot bridge
    [serial] and the caller should serve a full transfer. Counts
    [dns.ixfr.served] / [dns.ixfr.unchanged] / [dns.ixfr.fallbacks]
    and [dns.ixfr.changes_sent]. *)
val answers_for_zone :
  Zone.t -> serial:int32 -> [ `Answers of Rr.t list | `Fallback ]

(** {1 Client side} *)

(** Classify a response's answer records. [Error] — unparseable
    payload (no leading SOA). *)
val parse_answers : Rr.t list -> (response, string) result

(** [fetch stack ~server ~zone ~serial] — one IXFR exchange over TCP,
    through {!Axfr.transfer}. Shares {!Axfr.error} so callers handle
    both transfer kinds uniformly; an answer section that does not
    parse is [Transfer_failed]. *)
val fetch :
  Transport.Netstack.stack ->
  server:Transport.Address.t ->
  zone:Name.t ->
  serial:int32 ->
  (response, Axfr.error) result
