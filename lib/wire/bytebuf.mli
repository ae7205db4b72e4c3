(** Big-endian byte readers and writers shared by every wire format in
    the repository (XDR, Courier, DNS messages, Clearinghouse).

    Writers are growable; readers raise {!Truncated} instead of
    returning short reads, so protocol decoders can be written
    straight-line. *)

exception Truncated

module Wr : sig
  type t

  val create : ?initial:int -> unit -> t
  val length : t -> int

  (** Current backing-store size in bytes ([>= length]). *)
  val capacity : t -> int

  (** Grow the backing store (by amortised doubling) until it holds at
      least [n] bytes.  Appends never grow more than once per call. *)
  val ensure_capacity : t -> int -> unit

  val contents : t -> string
  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int32 -> unit
  val u64 : t -> int64 -> unit

  (** Raw bytes, no length prefix. *)
  val bytes : t -> string -> unit

  (** [set_u16 t pos v] overwrites the two bytes at [pos], which must
      lie below [length t]: a length field written as a placeholder,
      then patched once the body after it is written. *)
  val set_u16 : t -> int -> int -> unit

  (** [append t src] blits [src]'s contents onto [t] directly, with no
      intermediate string allocation. *)
  val append : t -> t -> unit

  (** Pad with zero bytes until [length] is a multiple of [align]. *)
  val pad_to : t -> int -> unit

  (** Reset [length] to zero.  Capacity is retained, so a cleared
      writer reuses its backing store — the basis of buffer pooling. *)
  val clear : t -> unit
end

module Rd : sig
  type t

  val of_string : string -> t

  (** [sub r ~len] is a reader over the next [len] bytes, advancing the
      parent past them. *)
  val sub : t -> len:int -> t

  val pos : t -> int
  val remaining : t -> int
  val at_end : t -> bool
  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int32
  val u64 : t -> int64
  val bytes : t -> int -> string

  (** Skip padding so that [pos] is a multiple of [align]. *)
  val align : t -> int -> unit

  (** Re-read from an absolute offset (used by DNS name compression).
      Does not move the read cursor. *)
  val peek_at : t -> int -> (t -> 'a) -> 'a
end
