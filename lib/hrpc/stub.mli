(** Typed client stubs.

    A [('a, 'b) proc] is what a stub compiler would emit for one
    procedure: the procedure number, the wire signature, and the
    conversions between OCaml values and IDL values. [call] is the
    stub body; the remaining four components come from the binding at
    call time. *)

type ('a, 'b) proc = {
  procnum : int;
  sign : Wire.Idl.signature;
  encode_arg : 'a -> Wire.Value.t;
  decode_res : Wire.Value.t -> 'b;
}

val proc :
  procnum:int ->
  sign:Wire.Idl.signature ->
  encode_arg:('a -> Wire.Value.t) ->
  decode_res:(Wire.Value.t -> 'b) ->
  ('a, 'b) proc

(** [call stack binding proc a] — a typed remote call under
    {!Rpc.Control.default_policy}. [decode_res] failures surface as
    [Protocol_error]. *)
val call :
  Transport.Netstack.stack ->
  Binding.t ->
  ('a, 'b) proc ->
  'a ->
  ('b, Rpc.Control.error) result
