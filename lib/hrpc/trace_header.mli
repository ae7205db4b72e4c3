(** The cross-hop trace context header.

    A client under an open span prepends ["HTC1" ^ trace ^ span] (two
    fixed-width lowercase-hex ids) to the marshalled call arguments;
    the server strips it and opens its dispatch span as a {e remote}
    child of [span] in trace [trace] ({!Obs.Span.open_remote_span}).
    The header sits inside the control envelope (SunRPC / Courier
    call body), leaving the control wire formats untouched; raw
    control (DNS) never carries it.

    Stripping is magic-gated: bodies without the 20-byte prefix pass
    through untouched, so unstamped traffic from tracing-off clients
    interoperates. *)

(** Stamp the calling fiber's current span context
    ({!Obs.Span.context}); identity when tracing is off or no span is
    open. *)
val stamp_current : string -> string

(** [strip body] is [(trace, span, rest)], or [(0, 0, body)] when no
    well-formed header is present. *)
val strip : string -> int * int * string
