(** Connection-oriented, reliable, ordered message streams — the
    transport under Courier RPC and under TCP message passing.

    The simulator models TCP at the message level: a connection is a
    pair of reliable FIFO channels with a one-round-trip handshake.
    Message boundaries are preserved (real Courier and Sun-RPC-over-TCP
    both run record-marking on top of the byte stream; we model the
    records directly). *)

exception Connection_refused of Address.t
exception Connection_closed

type listener
type conn

(** Claim a listening port. Raises [Invalid_argument] if taken. *)
val listen : Netstack.stack -> port:int -> listener

val listener_addr : listener -> Address.t

(** Block until a client connects. In-process only. *)
val accept : listener -> conn

(** Stop listening; established connections are unaffected. *)
val close_listener : listener -> unit

(** Block through the SYN/ACK round trip. In-process only.
    Raises {!Connection_refused} when nothing listens at [dst], or when
    the handshake does not complete within [timeout_ms] (default 30 s —
    a partitioned peer must not hang the caller forever). *)
val connect : ?timeout_ms:float -> Netstack.stack -> Address.t -> conn

(** Queue one message for in-order delivery. Never blocks.
    Raises {!Connection_closed} after a local [close]. *)
val send : conn -> string -> unit

(** Block until a message arrives. Raises {!Connection_closed} when the
    peer has closed and all data has been drained. In-process only. *)
val recv : conn -> string

(** [recv_timeout conn d] is [None] on timeout. In-process only. *)
val recv_timeout : conn -> float -> string option

(** Half-close: the peer's [recv] raises after draining. Idempotent. *)
val close : conn -> unit
