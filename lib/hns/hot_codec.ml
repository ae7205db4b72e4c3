(* Hand-coded encoders/decoders for the hot HNS record shapes, in the
   style of Dns.Msg: straight-line Bytebuf reads and writes, no
   intermediate Value tree on the paths that matter, buffer reuse via
   Wire.Hotcodec's pool.  Every wire form here is byte-identical to
   what Generic_marshal/Xdr produce for the same record, so old
   servers (and the Marshalled cache mode, which stores XDR bytes)
   interop unchanged — heterogeneity keeps its fallback. *)

module W = Wire.Bytebuf.Wr
module R = Wire.Bytebuf.Rd
module H = Wire.Hotcodec

let pool = H.shared_pool

(* Run a hand encoder on a pooled writer; returns the wire string and
   counts it. *)
let encoded f =
  H.with_wr pool (fun w ->
      f w;
      let s = W.contents w in
      H.count_encode ~bytes:(String.length s);
      s)

(* Run a hand decoder over [bytes], enforcing the same
   "no trailing bytes" contract as Xdr.of_string.  Any shape mismatch
   yields None so the caller can fall back to Generic_marshal. *)
let decoded bytes f =
  let r = R.of_string bytes in
  match f r with
  | v ->
      if R.at_end r then begin
        H.count_decode ~bytes:(String.length bytes);
        Some v
      end
      else None
  | exception Wire.Bytebuf.Truncated -> None

(* --- scalar shapes -------------------------------------------------- *)

let encode_string s = encoded (fun w -> H.put_string32 w s)
let decode_string bytes = decoded bytes H.get_string32

(* The prefetch-tail HostAddress row: a bare XDR uint.  The decode is
   the zero-copy centrepiece — four bytes to an int32, straight into a
   native cache entry, no Value. *)
let encode_host_addr ip = encoded (fun w -> H.put_u32 w ip)
let decode_host_addr bytes = decoded bytes H.get_u32

let encode_bundle_status st =
  encoded (fun w ->
      let e =
        match st with
        | Meta_schema.B_ok -> 0l
        | B_no_context -> 1l
        | B_no_nsm -> 2l
        | B_no_binding -> 3l
      in
      H.put_u32 w e)

let decode_bundle_status bytes =
  Option.bind (decoded bytes H.get_u32) (function
    | 0l -> Some Meta_schema.B_ok
    | 1l -> Some Meta_schema.B_no_context
    | 2l -> Some Meta_schema.B_no_nsm
    | 3l -> Some Meta_schema.B_no_binding
    | _ -> None)

(* --- record shapes -------------------------------------------------- *)

let put_int w n = W.u32 w (Int32.of_int n)
let get_int r = Int32.to_int (R.u32 r)

let encode_nsm_info (i : Meta_schema.nsm_info) =
  encoded (fun w ->
      H.put_string32 w i.nsm_host;
      H.put_string32 w i.nsm_host_context;
      put_int w i.nsm_port;
      put_int w i.nsm_prog;
      put_int w i.nsm_vers;
      put_int w
        (match i.nsm_suite.Hrpc.Component.data_rep with
        | Wire.Data_rep.Xdr -> 0
        | Courier -> 1);
      put_int w
        (match i.nsm_suite.Hrpc.Component.transport with
        | Hrpc.Component.T_udp -> 0
        | T_tcp -> 1);
      put_int w
        (match i.nsm_suite.Hrpc.Component.control with
        | Hrpc.Component.C_sunrpc -> 0
        | C_courier -> 1
        | C_raw -> 2))

(* Demarshal straight into the schema record — the form FindNSM
   actually consumes — with no Value tree in between. *)
let decode_nsm_info bytes =
  decoded bytes (fun r ->
      let nsm_host = H.get_string32 r in
      let nsm_host_context = H.get_string32 r in
      let nsm_port = get_int r in
      let nsm_prog = get_int r in
      let nsm_vers = get_int r in
      let data_rep =
        match get_int r with 0 -> Wire.Data_rep.Xdr | _ -> Courier
      in
      let transport =
        match get_int r with 0 -> Hrpc.Component.T_udp | _ -> T_tcp
      in
      let control =
        match get_int r with
        | 0 -> Hrpc.Component.C_sunrpc
        | 1 -> C_courier
        | _ -> C_raw
      in
      {
        Meta_schema.nsm_host;
        nsm_host_context;
        nsm_port;
        nsm_prog;
        nsm_vers;
        nsm_suite = { Hrpc.Component.data_rep; transport; control };
      })

let encode_ns_info (i : Meta_schema.ns_info) =
  encoded (fun w ->
      H.put_string32 w i.ns_type;
      H.put_string32 w i.ns_host;
      H.put_string32 w i.ns_host_context;
      put_int w i.ns_port)

let decode_ns_info bytes =
  decoded bytes (fun r ->
      let ns_type = H.get_string32 r in
      let ns_host = H.get_string32 r in
      let ns_host_context = H.get_string32 r in
      let ns_port = get_int r in
      { Meta_schema.ns_type; ns_host; ns_host_context; ns_port })

let encode_alternates names =
  encoded (fun w ->
      put_int w (List.length names);
      List.iter (H.put_string32 w) names)

let decode_alternates bytes =
  decoded bytes (fun r ->
      let n = get_int r in
      if n < 0 || n > 65_536 then raise Wire.Bytebuf.Truncated;
      List.init n (fun _ -> H.get_string32 r))

(* --- Value-level dispatch ------------------------------------------- *)

(* The meta client's cache stores demarshalled entries as Value trees
   (except host addresses, which get a native form).  For the hot
   shapes we hand-lower the decode — a flat run of reads building the
   final cached Value directly, skipping Generic_marshal's
   closure-per-type-node interpreter.  Unknown shapes return None and
   the caller falls back (counted), which is how a new record type
   introduced by an evolved server keeps working. *)

let is_hot_ty (ty : Wire.Idl.ty) =
  match ty with
  | Wire.Idl.T_string | T_uint | T_enum _ -> true
  | T_array T_string -> true
  | T_struct
      [
        ("host", T_string);
        ("host_context", T_string);
        ("port", T_int);
        ("prog", T_int);
        ("vers", T_int);
        ("data_rep", T_enum _);
        ("transport", T_enum _);
        ("control", T_enum _);
      ] ->
      true
  | T_struct
      [
        ("type", T_string);
        ("host", T_string);
        ("host_context", T_string);
        ("port", T_int);
      ] ->
      true
  | _ -> false

let decode_value (ty : Wire.Idl.ty) bytes : Wire.Value.t option =
  match ty with
  | Wire.Idl.T_string ->
      Option.map (fun s -> Wire.Value.Str s) (decode_string bytes)
  | T_uint -> Option.map (fun ip -> Wire.Value.Uint ip) (decode_host_addr bytes)
  | T_enum labels ->
      Option.bind (decoded bytes H.get_u32) (fun e ->
          let e = Int32.to_int e in
          if e < 0 || e >= List.length labels then None
          else Some (Wire.Value.Enum e))
  | T_array T_string ->
      Option.map
        (fun ss -> Wire.Value.Array (List.map (fun s -> Wire.Value.Str s) ss))
        (decode_alternates bytes)
  | T_struct
      [
        ("host", T_string);
        ("host_context", T_string);
        ("port", T_int);
        ("prog", T_int);
        ("vers", T_int);
        ("data_rep", T_enum _);
        ("transport", T_enum _);
        ("control", T_enum _);
      ] ->
      Option.map Meta_schema.nsm_info_to_value (decode_nsm_info bytes)
  | T_struct
      [
        ("type", T_string);
        ("host", T_string);
        ("host_context", T_string);
        ("port", T_int);
      ] ->
      Option.map Meta_schema.ns_info_to_value (decode_ns_info bytes)
  | _ -> None

(* The one choice of codec for a hot record: the hand codec's decode
   when one is configured and the shape is hot; otherwise [None], and
   the caller runs its generic decoder. A hand decode that rejects the
   bytes is counted as a fallback. *)
let decode_hot hand ty bytes =
  match hand with
  | Some _ when is_hot_ty ty -> (
      match decode_value ty bytes with
      | Some _ as v -> v
      | None ->
          Wire.Hotcodec.count_fallback ();
          None)
  | _ -> None

let encode_value (ty : Wire.Idl.ty) (v : Wire.Value.t) : string option =
  match (ty, v) with
  | Wire.Idl.T_string, Wire.Value.Str s -> Some (encode_string s)
  | T_uint, Uint ip -> Some (encode_host_addr ip)
  | T_enum labels, Enum e when e >= 0 && e < List.length labels ->
      Some (encoded (fun w -> put_int w e))
  | T_array T_string, Array xs -> (
      match
        List.map (function Wire.Value.Str s -> s | _ -> raise Exit) xs
      with
      | ss -> Some (encode_alternates ss)
      | exception Exit -> None)
  | ( T_struct
        [
          ("host", T_string);
          ("host_context", T_string);
          ("port", T_int);
          ("prog", T_int);
          ("vers", T_int);
          ("data_rep", T_enum _);
          ("transport", T_enum _);
          ("control", T_enum _);
        ],
      Struct _ ) -> (
      match Meta_schema.nsm_info_of_value v with
      | i -> Some (encode_nsm_info i)
      | exception _ -> None)
  | ( T_struct
        [
          ("type", T_string);
          ("host", T_string);
          ("host_context", T_string);
          ("port", T_int);
        ],
      Struct _ ) -> (
      match Meta_schema.ns_info_of_value v with
      | i -> Some (encode_ns_info i)
      | exception _ -> None)
  | _ -> None
