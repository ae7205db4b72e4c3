exception Truncated

module Wr = struct
  (* A growable byte sink over a [Bytes.t] backing store.  Unlike the
     original [Buffer.t]-backed writer, capacity survives [clear]: a
     pooled writer that has grown to fit one record batch serves the
     next batch with zero further allocation, which is what the hot
     codec's buffer pool relies on. *)
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create ?(initial = 64) () =
    { buf = Bytes.create (max 1 initial); len = 0 }

  let length b = b.len
  let capacity b = Bytes.length b.buf

  (* Amortised doubling: grow to at least [need] by repeatedly doubling
     the current capacity, so n appends cost O(n) total. *)
  let ensure_capacity b need =
    let cap = Bytes.length b.buf in
    if need > cap then begin
      let cap' = ref (max cap 1) in
      while !cap' < need do
        cap' := !cap' * 2
      done;
      let nb = Bytes.create !cap' in
      Bytes.blit b.buf 0 nb 0 b.len;
      b.buf <- nb
    end

  let contents b = Bytes.sub_string b.buf 0 b.len

  let u8 b v =
    ensure_capacity b (b.len + 1);
    Bytes.unsafe_set b.buf b.len (Char.unsafe_chr (v land 0xff));
    b.len <- b.len + 1

  let u16 b v =
    ensure_capacity b (b.len + 2);
    Bytes.unsafe_set b.buf b.len (Char.unsafe_chr ((v lsr 8) land 0xff));
    Bytes.unsafe_set b.buf (b.len + 1) (Char.unsafe_chr (v land 0xff));
    b.len <- b.len + 2

  let set_u16 b pos v =
    if pos < 0 || pos + 2 > b.len then invalid_arg "Bytebuf.Wr.set_u16";
    Bytes.unsafe_set b.buf pos (Char.unsafe_chr ((v lsr 8) land 0xff));
    Bytes.unsafe_set b.buf (pos + 1) (Char.unsafe_chr (v land 0xff))

  let u32 b v =
    let v = Int32.to_int v in
    ensure_capacity b (b.len + 4);
    Bytes.unsafe_set b.buf b.len (Char.unsafe_chr ((v lsr 24) land 0xff));
    Bytes.unsafe_set b.buf (b.len + 1) (Char.unsafe_chr ((v lsr 16) land 0xff));
    Bytes.unsafe_set b.buf (b.len + 2) (Char.unsafe_chr ((v lsr 8) land 0xff));
    Bytes.unsafe_set b.buf (b.len + 3) (Char.unsafe_chr (v land 0xff));
    b.len <- b.len + 4

  let u64 b v =
    u32 b (Int64.to_int32 (Int64.shift_right_logical v 32));
    u32 b (Int64.to_int32 v)

  let bytes b s =
    let n = String.length s in
    ensure_capacity b (b.len + n);
    Bytes.blit_string s 0 b.buf b.len n;
    b.len <- b.len + n

  (* Blit another writer's contents in directly — no intermediate
     string, unlike [bytes b (contents src)]. *)
  let append b src =
    ensure_capacity b (b.len + src.len);
    Bytes.blit src.buf 0 b.buf b.len src.len;
    b.len <- b.len + src.len

  let pad_to b align =
    let rem = b.len mod align in
    if rem <> 0 then begin
      let pad = align - rem in
      ensure_capacity b (b.len + pad);
      Bytes.fill b.buf b.len pad '\000';
      b.len <- b.len + pad
    end

  (* Capacity is retained: clearing a grown writer keeps its backing
     store so reuse across a batch allocates nothing. *)
  let clear b = b.len <- 0
end

module Rd = struct
  type t = { data : string; mutable off : int; limit : int }

  let of_string s = { data = s; off = 0; limit = String.length s }

  let need r n = if r.off + n > r.limit then raise Truncated

  let sub r ~len =
    need r len;
    let child = { data = r.data; off = r.off; limit = r.off + len } in
    r.off <- r.off + len;
    child

  let pos r = r.off
  let remaining r = r.limit - r.off
  let at_end r = r.off >= r.limit

  let u8 r =
    need r 1;
    let v = Char.code r.data.[r.off] in
    r.off <- r.off + 1;
    v

  let u16 r =
    let hi = u8 r in
    let lo = u8 r in
    (hi lsl 8) lor lo

  let u32 r =
    let a = u16 r and b = u16 r in
    Int32.logor (Int32.shift_left (Int32.of_int a) 16) (Int32.of_int b)

  let u64 r =
    let hi = u32 r and lo = u32 r in
    Int64.logor
      (Int64.shift_left (Int64.of_int32 hi) 32)
      (Int64.logand (Int64.of_int32 lo) 0xFFFFFFFFL)

  let bytes r n =
    need r n;
    let s = String.sub r.data r.off n in
    r.off <- r.off + n;
    s

  let align r a =
    let rem = r.off mod a in
    if rem <> 0 then ignore (bytes r (a - rem))

  let peek_at r off f =
    if off < 0 || off > String.length r.data then raise Truncated;
    f { data = r.data; off; limit = String.length r.data }
end
