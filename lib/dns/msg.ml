type opcode = Query | Notify | Update

type rcode =
  | No_error
  | Form_err
  | Serv_fail
  | Nx_domain
  | Not_impl
  | Refused
  | Not_zone

type question = { qname : Name.t; qtype : Rr.rtype }

type update_op =
  | Add of Rr.t
  | Delete_rrset of Name.t * Rr.rtype
  | Delete_rr of Name.t * Rr.rdata
  | Delete_name of Name.t

type t = {
  id : int;
  is_response : bool;
  opcode : opcode;
  authoritative : bool;
  truncated : bool;
  recursion_desired : bool;
  recursion_available : bool;
  rcode : rcode;
  questions : question list;
  answers : Rr.t list;
  updates : update_op list;
  authority : Rr.t list;
  additional : Rr.t list;
}

exception Bad_message of string

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

let rcode_to_string = function
  | No_error -> "NOERROR"
  | Form_err -> "FORMERR"
  | Serv_fail -> "SERVFAIL"
  | Nx_domain -> "NXDOMAIN"
  | Not_impl -> "NOTIMP"
  | Refused -> "REFUSED"
  | Not_zone -> "NOTZONE"

let empty =
  {
    id = 0;
    is_response = false;
    opcode = Query;
    authoritative = false;
    truncated = false;
    recursion_desired = false;
    recursion_available = false;
    rcode = No_error;
    questions = [];
    answers = [];
    updates = [];
    authority = [];
    additional = [];
  }

let query ~id qname qtype =
  { empty with id; questions = [ { qname; qtype } ]; recursion_desired = true }

let response ?(rcode = No_error) ?(authoritative = true) ?(truncated = false) ~request
    answers =
  {
    empty with
    id = request.id;
    is_response = true;
    opcode = request.opcode;
    authoritative;
    truncated;
    recursion_desired = request.recursion_desired;
    rcode;
    questions = request.questions;
    answers;
  }

(* RFC 1996 NOTIFY: question names the zone, answer carries the new
   SOA so the receiver can skip the serial probe. *)
let notify ~id ~zone soa_rr =
  {
    empty with
    id;
    opcode = Notify;
    authoritative = true;
    questions = [ { qname = zone; qtype = Rr.T_soa } ];
    answers = [ soa_rr ];
  }

let notify_ack ~request =
  {
    empty with
    id = request.id;
    is_response = true;
    opcode = Notify;
    authoritative = true;
    questions = request.questions;
  }

let update_request ~id ~zone updates =
  {
    empty with
    id;
    opcode = Update;
    questions = [ { qname = zone; qtype = Rr.T_soa } ];
    updates;
  }

let update_ack ?(rcode = No_error) ~request () =
  {
    empty with
    id = request.id;
    is_response = true;
    opcode = Update;
    rcode;
    questions = request.questions;
  }

let answer_count t = List.length t.answers

(* --- encoding --- *)

module W = Wire.Bytebuf.Wr

(* The codec runs on process-wide scratch: the message writer, the
   compression table, and the decoder's cursor and suffix table. Each
   is reset at the start of every message. That is safe because the
   simulator runs on one domain and the codec performs no effect: a
   fiber cannot be suspended mid-message, and no encode or decode
   nests inside another. *)
let out = W.create ~initial:512 ()

(* RFC 1035 section 4.1.4 name compression: a label whose length octet
   has the top two bits set is a pointer to a prior occurrence of the
   remaining suffix. The compression table maps each suffix written so
   far to its offset in the message. It is keyed on the label list,
   not the printed name: a label may hold a '.' (the prefetch rows'
   "<context>!<host>" label does), so ["a.b"; "c"] and ["a"; "b.c"]
   print alike but are different names. *)
module Suffixes = Hashtbl.Make (struct
  type t = string list

  let rec equal a b =
    a == b
    || match (a, b) with x :: xs, y :: ys -> String.equal x y && equal xs ys | _ -> false

  (* FNV-1a over each label's length and bytes, with the high bits
     folded into the low ones the table indexes by. *)
  let hash_label h label =
    let h = ref ((h lxor String.length label) * 0x100000001b3) in
    for i = 0 to String.length label - 1 do
      h := (!h lxor Char.code (String.unsafe_get label i)) * 0x100000001b3
    done;
    !h

  let rec hash_labels h = function [] -> h | label :: rest -> hash_labels (hash_label h label) rest

  let hash labels =
    let h = hash_labels 0 labels in
    h lxor (h lsr 32)
end)

let compression : int Suffixes.t = Suffixes.create 32

let rec encode_labels ~compress labels =
  match labels with
  | [] -> W.u8 out 0
  | label :: rest -> (
      match if compress then Suffixes.find_opt compression labels else None with
      | Some target -> W.u16 out (0xC000 lor target)
      | None ->
          let here = W.length out in
          if compress && here < 0x4000 then Suffixes.add compression labels here;
          W.u8 out (String.length label);
          W.bytes out label;
          encode_labels ~compress rest)

let encode_name ~compress name = encode_labels ~compress (Name.labels name)

let char_string s =
  if String.length s > 255 then invalid_arg "Msg: character-string too long";
  W.u8 out (String.length s);
  W.bytes out s

let encode_rdata ~compress (rdata : Rr.rdata) =
  match rdata with
  | A ip -> W.u32 out ip
  | Ns n | Cname n | Ptr n -> encode_name ~compress n
  | Soa s ->
      encode_name ~compress s.mname;
      encode_name ~compress s.rname;
      W.u32 out s.serial;
      W.u32 out s.refresh;
      W.u32 out s.retry;
      W.u32 out s.expire;
      W.u32 out s.minimum
  | Hinfo (cpu, os) ->
      char_string cpu;
      char_string os
  | Mx (pref, n) ->
      W.u16 out pref;
      encode_name ~compress n
  | Txt ss -> List.iter char_string ss
  | Unspec s -> W.bytes out s

(* A record on the wire: name, type, class, ttl, rdlength, rdata. The
   rdata is written in place after a placeholder rdlength, patched once
   its size is known, so names inside it compress against their true
   offsets. *)
let encode_rr_head ~compress name ~type_code ~class_code ~ttl =
  encode_name ~compress name;
  W.u16 out type_code;
  W.u16 out class_code;
  W.u32 out ttl

let encode_rdata_field ~compress rdata =
  let at = W.length out in
  W.u16 out 0;
  encode_rdata ~compress rdata;
  W.set_u16 out at (W.length out - at - 2)

let encode_rr ~compress (rr : Rr.t) =
  encode_rr_head ~compress rr.name
    ~type_code:(Rr.rtype_code (Rr.rdata_type rr.rdata))
    ~class_code:(Rr.rclass_code rr.rclass) ~ttl:rr.ttl;
  encode_rdata_field ~compress rr.rdata

let encode_update_op ~compress = function
  | Add rr -> encode_rr ~compress rr
  | Delete_rrset (name, rtype) ->
      encode_rr_head ~compress name ~type_code:(Rr.rtype_code rtype)
        ~class_code:(Rr.rclass_code Rr.C_any) ~ttl:0l;
      W.u16 out 0
  | Delete_rr (name, rdata) ->
      encode_rr_head ~compress name
        ~type_code:(Rr.rtype_code (Rr.rdata_type rdata))
        ~class_code:(Rr.rclass_code Rr.C_none) ~ttl:0l;
      encode_rdata_field ~compress rdata
  | Delete_name name ->
      encode_rr_head ~compress name ~type_code:(Rr.rtype_code Rr.T_any)
        ~class_code:(Rr.rclass_code Rr.C_any) ~ttl:0l;
      W.u16 out 0

(* Write [t] into [out], replacing what was there. *)
let write_message ~compress t =
  W.clear out;
  Suffixes.reset compression;
  W.u16 out (t.id land 0xFFFF);
  let flags =
    ((if t.is_response then 1 else 0) lsl 15)
    lor (opcode_code t.opcode lsl 11)
    lor ((if t.authoritative then 1 else 0) lsl 10)
    lor ((if t.truncated then 1 else 0) lsl 9)
    lor ((if t.recursion_desired then 1 else 0) lsl 8)
    lor ((if t.recursion_available then 1 else 0) lsl 7)
    lor rcode_code t.rcode
  in
  W.u16 out flags;
  let section3_count =
    match t.opcode with
    | Update -> List.length t.updates
    | Query | Notify -> List.length t.authority
  in
  W.u16 out (List.length t.questions);
  W.u16 out (List.length t.answers);
  W.u16 out section3_count;
  W.u16 out (List.length t.additional);
  List.iter
    (fun q ->
      encode_name ~compress q.qname;
      W.u16 out (Rr.rtype_code q.qtype);
      W.u16 out (Rr.rclass_code Rr.C_in))
    t.questions;
  List.iter (encode_rr ~compress) t.answers;
  (match t.opcode with
  | Update -> List.iter (encode_update_op ~compress) t.updates
  | Query | Notify -> List.iter (encode_rr ~compress) t.authority);
  List.iter (encode_rr ~compress) t.additional

let encode ?(compress = true) t =
  write_message ~compress t;
  W.contents out

let udp_payload_limit = 512

let encode_for_udp t =
  write_message ~compress:true t;
  if W.length out <= udp_payload_limit then (t, W.contents out)
  else
    let t = { t with truncated = true; answers = []; authority = []; additional = [] } in
    (t, encode t)

(* --- decoding --- *)

(* The decoder reads the message string directly rather than through
   [Wire.Bytebuf.Rd]. Dune's default profile compiles with [-opaque],
   so a call into another module is never inlined, and a call per read
   made decoding 1.4-1.6x slower on a 2-core Xeon VM. *)
let src = ref ""
let pos = ref 0

(* Reads stop here: the end of the message, or of the record data being
   read. *)
let limit = ref 0

let need n = if !pos + n > !limit then raise (Bad_message "truncated DNS message")

let get_u8 () =
  need 1;
  let v = Char.code (String.unsafe_get !src !pos) in
  incr pos;
  v

let get_u16 () =
  need 2;
  let v = String.get_uint16_be !src !pos in
  pos := !pos + 2;
  v

let get_u32 () =
  need 4;
  let v = String.get_int32_be !src !pos in
  pos := !pos + 4;
  v

let get_string n =
  need n;
  let s = String.sub !src !pos n in
  pos := !pos + n;
  s

(* The suffixes decoded so far in this message, by the wire offset of
   their first label. A compression pointer to a decoded offset returns
   that suffix itself, so names that share a tail on the wire share it
   in memory, and it is read once. [suffix_at.(o)] holds for this
   message when [stamp.(o)] is its [generation], so starting a message
   clears nothing. The arrays grow up to 0x4000 entries, one per offset
   a pointer can reach. *)
let generation = ref 0
let stamp = ref (Array.make 512 0)
let suffix_at = ref (Array.make 512 [])

let record here suffix =
  if here < 0x4000 then begin
    let n = Array.length !stamp in
    if here >= n then begin
      let n' = min 0x4000 (max (here + 1) (2 * n)) in
      stamp := Array.append !stamp (Array.make (n' - n) 0);
      suffix_at := Array.append !suffix_at (Array.make (n' - n) [])
    end;
    !stamp.(here) <- !generation;
    !suffix_at.(here) <- suffix
  end

let recorded target = target < Array.length !stamp && !stamp.(target) = !generation

(* The length [Name] limits to 255: each label plus its length octet. *)
let rec name_size acc = function
  | [] -> acc
  | label :: rest -> name_size (acc + String.length label + 1) rest

let rec has_upper s i stop =
  i < stop && match String.unsafe_get s i with 'A' .. 'Z' -> true | _ -> has_upper s (i + 1) stop

(* A label of [len] bytes, folded to lower case; only a label holding
   an upper-case byte is copied through the fold. *)
let get_label len =
  need len;
  let s = !src and p = !pos in
  pos := p + len;
  if has_upper s p (p + len) then
    String.init len (fun i -> Char.lowercase_ascii (String.unsafe_get s (p + i)))
  else String.sub s p len

(* Read one name's labels at the cursor, checking each label's length
   and folding its case as it is read. [size] counts the labels before
   the cursor, [jumps] the pointers followed to an offset not decoded
   yet. *)
let rec read_labels ~size ~jumps =
  let here = !pos in
  match get_u8 () with
  | 0 -> []
  | len when len <= 63 ->
      let size = size + len + 1 in
      if size > 255 then fail "name exceeds 255 bytes";
      let label = get_label len in
      let suffix = label :: read_labels ~size ~jumps in
      record here suffix;
      suffix
  | len when len >= 0xC0 ->
      let target = ((len land 0x3F) lsl 8) lor get_u8 () in
      if recorded target then begin
        let suffix = !suffix_at.(target) in
        if name_size size suffix > 255 then fail "name exceeds 255 bytes";
        suffix
      end
      else begin
        if jumps > 32 then fail "compression pointer loop";
        let resume = !pos and window = !limit in
        pos := target;
        limit := String.length !src;
        let suffix = read_labels ~size ~jumps:(jumps + 1) in
        pos := resume;
        limit := window;
        suffix
      end
  | len -> fail "bad label length %d" len

let decode_name () = Name.of_folded_labels (read_labels ~size:0 ~jumps:0)
let decode_char_string () = get_string (get_u8 ())

let decode_rdata (rtype : Rr.rtype) : Rr.rdata =
  match rtype with
  | T_a -> A (get_u32 ())
  | T_ns -> Ns (decode_name ())
  | T_cname -> Cname (decode_name ())
  | T_ptr -> Ptr (decode_name ())
  | T_soa ->
      let mname = decode_name () in
      let rname = decode_name () in
      let serial = get_u32 () in
      let refresh = get_u32 () in
      let retry = get_u32 () in
      let expire = get_u32 () in
      let minimum = get_u32 () in
      Soa { mname; rname; serial; refresh; retry; expire; minimum }
  | T_hinfo ->
      let cpu = decode_char_string () in
      let os = decode_char_string () in
      Hinfo (cpu, os)
  | T_mx ->
      let pref = get_u16 () in
      Mx (pref, decode_name ())
  | T_txt ->
      let rec go acc = if !pos >= !limit then List.rev acc else go (decode_char_string () :: acc) in
      Txt (go [])
  | T_unspec -> Unspec (get_string (!limit - !pos))
  | T_ixfr | T_axfr | T_any -> fail "query-only type in record"

let rtype_of_code code =
  match Rr.rtype_of_code code with Some t -> t | None -> fail "unknown rr type %d" code

let rclass_of_code code =
  match Rr.rclass_of_code code with Some c -> c | None -> fail "unknown rr class %d" code

(* Reads stop at the end of the record data at the cursor, whose length
   is read first; [close_rdata] steps past it. Records never nest, so
   the window outside is always the whole message. *)
let open_rdata () =
  let len = get_u16 () in
  need len;
  limit := !pos + len

let close_rdata () =
  pos := !limit;
  limit := String.length !src

let decode_rr () : Rr.t =
  let name = decode_name () in
  let rtype = rtype_of_code (get_u16 ()) in
  let rclass = rclass_of_code (get_u16 ()) in
  let ttl = get_u32 () in
  open_rdata ();
  let rdata = decode_rdata rtype in
  close_rdata ();
  { name; ttl; rclass; rdata }

(* An update section record: its class says which operation it is. *)
let decode_update_op () =
  let name = decode_name () in
  let rtype = rtype_of_code (get_u16 ()) in
  let rclass = rclass_of_code (get_u16 ()) in
  let ttl = get_u32 () in
  open_rdata ();
  let op =
    match rclass with
    | C_in -> Add { name; ttl; rclass; rdata = decode_rdata rtype }
    | C_any -> if rtype = Rr.T_any then Delete_name name else Delete_rrset (name, rtype)
    | C_none -> Delete_rr (name, decode_rdata rtype)
  in
  close_rdata ();
  op

(* [List.init]'s application order is unspecified; decoding is
   stateful, so sequence explicitly. *)
let rec times n f = if n <= 0 then [] else let x = f () in x :: times (n - 1) f

let decode s =
  src := s;
  pos := 0;
  limit := String.length s;
  incr generation;
  let id = get_u16 () in
  let flags = get_u16 () in
  let qdcount = get_u16 () in
  let ancount = get_u16 () in
  let nscount = get_u16 () in
  let arcount = get_u16 () in
  let is_response = flags land 0x8000 <> 0 in
  let opcode = opcode_of_code ((flags lsr 11) land 0xF) in
  let authoritative = flags land 0x400 <> 0 in
  let truncated = flags land 0x200 <> 0 in
  let recursion_desired = flags land 0x100 <> 0 in
  let recursion_available = flags land 0x80 <> 0 in
  let rcode = rcode_of_code (flags land 0xF) in
  let questions =
    times qdcount (fun () ->
        let qname = decode_name () in
        let type_code = get_u16 () in
        let _class_code = get_u16 () in
        match Rr.rtype_of_code type_code with
        | Some qtype -> { qname; qtype }
        | None -> fail "unknown question type %d" type_code)
  in
  let answers = times ancount decode_rr in
  let updates, authority =
    match opcode with
    | Update -> (times nscount decode_update_op, [])
    | Query | Notify -> ([], times nscount decode_rr)
  in
  let additional = times arcount decode_rr in
  {
    id;
    is_response;
    opcode;
    authoritative;
    truncated;
    recursion_desired;
    recursion_available;
    rcode;
    questions;
    answers;
    updates;
    authority;
    additional;
  }

let pp ppf t =
  Format.fprintf ppf "%s id=%d %s%s q=[%s] an=%d ns=%d ar=%d"
    (match t.opcode with Query -> "QUERY" | Notify -> "NOTIFY" | Update -> "UPDATE")
    t.id
    (if t.is_response then "resp " else "req ")
    (rcode_to_string t.rcode)
    (String.concat ","
       (List.map
          (fun q -> Printf.sprintf "%s:%s" (Name.to_string q.qname) (Rr.rtype_name q.qtype))
          t.questions))
    (List.length t.answers)
    (match t.opcode with
    | Update -> List.length t.updates
    | Query | Notify -> List.length t.authority)
    (List.length t.additional)
