(* Reference model of the DNS wire codec: Dns.Msg's encoder, decoder and
   UDP truncation as first written, kept so properties can hold the
   production codec to it. It keys name compression on the printed
   suffix, builds each name and rdata in fresh buffers, encodes a reply
   once just to measure it, and decodes a name in two passes (read the
   labels, then [Name.of_labels]).

   [encode ~label_case] rewrites each label as it is written (compression
   still keys on the folded name), so tests can put mixed-case labels on
   the wire. *)

open Dns.Msg
module W = Wire.Bytebuf.Wr
module R = Wire.Bytebuf.Rd
module Name = Dns.Name
module Rr = Dns.Rr

let fail fmt = Format.kasprintf (fun s -> raise (Bad_message s)) fmt
let opcode_code = function Query -> 0 | Notify -> 4 | Update -> 5

let opcode_of_code = function
  | 0 -> Query
  | 4 -> Notify
  | 5 -> Update
  | n -> fail "unsupported opcode %d" n

let rcode_code = function
  | No_error -> 0
  | Form_err -> 1
  | Serv_fail -> 2
  | Nx_domain -> 3
  | Not_impl -> 4
  | Refused -> 5
  | Not_zone -> 10

let rcode_of_code = function
  | 0 -> No_error
  | 1 -> Form_err
  | 2 -> Serv_fail
  | 3 -> Nx_domain
  | 4 -> Not_impl
  | 5 -> Refused
  | 10 -> Not_zone
  | n -> fail "unsupported rcode %d" n

type ctx = { offsets : (string, int) Hashtbl.t; label_case : string -> string }

let rec encode_name ~ctx ~compress ?(base = 0) wr name =
  match Name.labels name with
  | [] -> W.u8 wr 0
  | label :: rest -> (
      let suffix = Name.to_string name in
      let here = base + W.length wr in
      match Hashtbl.find_opt ctx.offsets suffix with
      | Some target when compress ->
          W.u8 wr (0xC0 lor (target lsr 8));
          W.u8 wr (target land 0xFF)
      | _ ->
          if compress && here < 0x4000 then Hashtbl.replace ctx.offsets suffix here;
          let label = ctx.label_case label in
          W.u8 wr (String.length label);
          W.bytes wr label;
          encode_name ~ctx ~compress ~base wr (Name.of_labels rest))

let decode_name rd =
  let rec go rd acc n jumps =
    if n > 128 then fail "name with too many labels"
    else
      match R.u8 rd with
      | 0 -> List.rev acc
      | len when len <= 63 -> go rd (R.bytes rd len :: acc) (n + 1) jumps
      | len when len >= 0xC0 ->
          if jumps > 32 then fail "compression pointer loop"
          else
            let offset = ((len land 0x3F) lsl 8) lor R.u8 rd in
            R.peek_at rd offset (fun rd' -> go rd' acc n (jumps + 1))
      | len -> fail "bad label length %d" len
  in
  Name.of_labels (go rd [] 0 0)

let char_string wr s =
  if String.length s > 255 then invalid_arg "Msg: character-string too long";
  W.u8 wr (String.length s);
  W.bytes wr s

let decode_char_string rd = R.bytes rd (R.u8 rd)

let encode_rdata ~ctx ~compress ~base wr (rdata : Rr.rdata) =
  match rdata with
  | A ip -> W.u32 wr ip
  | Ns n | Cname n | Ptr n -> encode_name ~ctx ~compress ~base wr n
  | Soa s ->
      encode_name ~ctx ~compress ~base wr s.mname;
      encode_name ~ctx ~compress ~base wr s.rname;
      List.iter (W.u32 wr) [ s.serial; s.refresh; s.retry; s.expire; s.minimum ]
  | Hinfo (cpu, os) ->
      char_string wr cpu;
      char_string wr os
  | Mx (pref, n) ->
      W.u16 wr pref;
      encode_name ~ctx ~compress ~base wr n
  | Txt ss -> List.iter (char_string wr) ss
  | Unspec s -> W.bytes wr s

let decode_rdata rtype rd : Rr.rdata =
  match (rtype : Rr.rtype) with
  | T_a -> A (R.u32 rd)
  | T_ns -> Ns (decode_name rd)
  | T_cname -> Cname (decode_name rd)
  | T_ptr -> Ptr (decode_name rd)
  | T_soa ->
      let mname = decode_name rd in
      let rname = decode_name rd in
      let serial = R.u32 rd in
      let refresh = R.u32 rd in
      let retry = R.u32 rd in
      let expire = R.u32 rd in
      let minimum = R.u32 rd in
      Soa { mname; rname; serial; refresh; retry; expire; minimum }
  | T_hinfo ->
      let cpu = decode_char_string rd in
      let os = decode_char_string rd in
      Hinfo (cpu, os)
  | T_mx ->
      let pref = R.u16 rd in
      Mx (pref, decode_name rd)
  | T_txt ->
      let rec go acc = if R.at_end rd then List.rev acc else go (decode_char_string rd :: acc) in
      Txt (go [])
  | T_unspec -> Unspec (R.bytes rd (R.remaining rd))
  | T_ixfr | T_axfr | T_any -> fail "query-only type in record"

let encode_rr_raw ~ctx ~compress wr ~name ~type_code ~class_code ~ttl rdata_opt =
  encode_name ~ctx ~compress wr name;
  W.u16 wr type_code;
  W.u16 wr class_code;
  W.u32 wr ttl;
  match rdata_opt with
  | None -> W.u16 wr 0
  | Some rdata ->
      let sub = W.create ~initial:128 () in
      encode_rdata ~ctx ~compress ~base:(W.length wr + 2) sub rdata;
      W.u16 wr (W.length sub);
      W.append wr sub

let encode_rr ~ctx ~compress wr (rr : Rr.t) =
  encode_rr_raw ~ctx ~compress wr ~name:rr.name
    ~type_code:(Rr.rtype_code (Rr.rdata_type rr.rdata))
    ~class_code:(Rr.rclass_code rr.rclass) ~ttl:rr.ttl (Some rr.rdata)

let encode_update_op ~ctx ~compress wr = function
  | Add rr -> encode_rr ~ctx ~compress wr rr
  | Delete_rrset (name, rtype) ->
      encode_rr_raw ~ctx ~compress wr ~name ~type_code:(Rr.rtype_code rtype)
        ~class_code:(Rr.rclass_code Rr.C_any) ~ttl:0l None
  | Delete_rr (name, rdata) ->
      encode_rr_raw ~ctx ~compress wr ~name
        ~type_code:(Rr.rtype_code (Rr.rdata_type rdata))
        ~class_code:(Rr.rclass_code Rr.C_none) ~ttl:0l (Some rdata)
  | Delete_name name ->
      encode_rr_raw ~ctx ~compress wr ~name ~type_code:(Rr.rtype_code Rr.T_any)
        ~class_code:(Rr.rclass_code Rr.C_any) ~ttl:0l None

let decode_rr_raw rd =
  let name = decode_name rd in
  let type_code = R.u16 rd in
  let class_code = R.u16 rd in
  let ttl = R.u32 rd in
  let rdlength = R.u16 rd in
  let body = R.sub rd ~len:rdlength in
  (name, type_code, class_code, ttl, body)

let decode_rr rd : Rr.t =
  let name, type_code, class_code, ttl, body = decode_rr_raw rd in
  let rtype =
    match Rr.rtype_of_code type_code with
    | Some t -> t
    | None -> fail "unknown rr type %d" type_code
  in
  let rclass =
    match Rr.rclass_of_code class_code with
    | Some c -> c
    | None -> fail "unknown rr class %d" class_code
  in
  { name; ttl; rclass; rdata = decode_rdata rtype body }

let decode_update_op rd =
  let name, type_code, class_code, ttl, body = decode_rr_raw rd in
  let rtype =
    match Rr.rtype_of_code type_code with
    | Some t -> t
    | None -> fail "unknown rr type %d in update" type_code
  in
  match Rr.rclass_of_code class_code with
  | Some Rr.C_in -> Add { name; ttl; rclass = Rr.C_in; rdata = decode_rdata rtype body }
  | Some Rr.C_any -> if rtype = Rr.T_any then Delete_name name else Delete_rrset (name, rtype)
  | Some Rr.C_none -> Delete_rr (name, decode_rdata rtype body)
  | None -> fail "unknown rr class %d in update" class_code

let encode ?(compress = true) ?(label_case = Fun.id) t =
  let ctx = { offsets = Hashtbl.create 16; label_case } in
  let wr = W.create ~initial:256 () in
  W.u16 wr (t.id land 0xFFFF);
  let bit b n = if b then 1 lsl n else 0 in
  W.u16 wr
    (bit t.is_response 15
    lor (opcode_code t.opcode lsl 11)
    lor bit t.authoritative 10 lor bit t.truncated 9 lor bit t.recursion_desired 8
    lor bit t.recursion_available 7 lor rcode_code t.rcode);
  let section3_count =
    match t.opcode with
    | Update -> List.length t.updates
    | Query | Notify -> List.length t.authority
  in
  W.u16 wr (List.length t.questions);
  W.u16 wr (List.length t.answers);
  W.u16 wr section3_count;
  W.u16 wr (List.length t.additional);
  List.iter
    (fun q ->
      encode_name ~ctx ~compress wr q.qname;
      W.u16 wr (Rr.rtype_code q.qtype);
      W.u16 wr (Rr.rclass_code Rr.C_in))
    t.questions;
  List.iter (encode_rr ~ctx ~compress wr) t.answers;
  (match t.opcode with
  | Update -> List.iter (encode_update_op ~ctx ~compress wr) t.updates
  | Query | Notify -> List.iter (encode_rr ~ctx ~compress wr) t.authority);
  List.iter (encode_rr ~ctx ~compress wr) t.additional;
  W.contents wr

let rec times n f = if n <= 0 then [] else let x = f () in x :: times (n - 1) f

let decode s =
  let rd = R.of_string s in
  try
    let id = R.u16 rd in
    let flags = R.u16 rd in
    let qdcount = R.u16 rd in
    let ancount = R.u16 rd in
    let nscount = R.u16 rd in
    let arcount = R.u16 rd in
    let opcode = opcode_of_code ((flags lsr 11) land 0xF) in
    let rcode = rcode_of_code (flags land 0xF) in
    let questions =
      times qdcount (fun () ->
          let qname = decode_name rd in
          let type_code = R.u16 rd in
          let _class_code = R.u16 rd in
          match Rr.rtype_of_code type_code with
          | Some qtype -> { qname; qtype }
          | None -> fail "unknown question type %d" type_code)
    in
    let answers = times ancount (fun () -> decode_rr rd) in
    let updates, authority =
      match opcode with
      | Update -> (times nscount (fun () -> decode_update_op rd), [])
      | Query | Notify -> ([], times nscount (fun () -> decode_rr rd))
    in
    let additional = times arcount (fun () -> decode_rr rd) in
    {
      id;
      is_response = flags land 0x8000 <> 0;
      opcode;
      authoritative = flags land 0x400 <> 0;
      truncated = flags land 0x200 <> 0;
      recursion_desired = flags land 0x100 <> 0;
      recursion_available = flags land 0x80 <> 0;
      rcode;
      questions;
      answers;
      updates;
      authority;
      additional;
    }
  with Wire.Bytebuf.Truncated -> fail "truncated DNS message"

let truncate_for_udp t =
  if String.length (encode t) <= udp_payload_limit then t
  else { t with truncated = true; answers = []; authority = []; additional = [] }
