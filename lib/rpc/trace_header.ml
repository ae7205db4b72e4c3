(* Cross-hop trace context rides inside the call body, in front of the
   marshalled arguments: a 4-byte magic plus two fixed-width hex ids.

     "HTC1" <trace_id:%08x> <span_id:%08x> <marshalled args...>

   The header lives *inside* the SunRPC/Courier envelope, so the
   control wire formats are untouched; stripping is magic-gated, so
   unstamped traffic (tracing off, native clients) decodes exactly as
   before. Raw-control calls (DNS) never carry it. *)

let magic = "HTC1"
let header_len = 20

let stamp ~trace ~span body =
  Printf.sprintf "%s%08x%08x%s" magic (trace land 0xFFFFFFFF)
    (span land 0xFFFFFFFF) body

(* Stamp the calling fiber's current span context, if tracing is on
   and a span is open. *)
let stamp_current body =
  match Obs.Span.context () with
  | None -> body
  | Some (trace, span) -> stamp ~trace ~span body

let hex s = int_of_string ("0x" ^ s)

(* [(trace, span, rest)]; [(0, 0, body)] when no header is present. *)
let strip body =
  if String.length body >= header_len && String.starts_with ~prefix:magic body then
    match (hex (String.sub body 4 8), hex (String.sub body 12 8)) with
    | trace, span ->
        (trace, span, String.sub body header_len (String.length body - header_len))
    | exception _ -> (0, 0, body)
  else (0, 0, body)
