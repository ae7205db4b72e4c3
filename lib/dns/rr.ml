type soa = {
  mname : Name.t;
  rname : Name.t;
  serial : int32;
  refresh : int32;
  retry : int32;
  expire : int32;
  minimum : int32;
}

type rdata =
  | A of Transport.Address.ip
  | Ns of Name.t
  | Cname of Name.t
  | Soa of soa
  | Ptr of Name.t
  | Hinfo of string * string
  | Mx of int * Name.t
  | Txt of string list
  | Unspec of string

type rtype =
  | T_a
  | T_ns
  | T_cname
  | T_soa
  | T_ptr
  | T_hinfo
  | T_mx
  | T_txt
  | T_unspec
  | T_ixfr
  | T_axfr
  | T_any

type rclass = C_in | C_none | C_any

type t = { name : Name.t; ttl : int32; rclass : rclass; rdata : rdata }

let rtype_code = function
  | T_a -> 1
  | T_ns -> 2
  | T_cname -> 5
  | T_soa -> 6
  | T_ptr -> 12
  | T_hinfo -> 13
  | T_mx -> 15
  | T_txt -> 16
  | T_unspec -> 103
  | T_ixfr -> 251
  | T_axfr -> 252
  | T_any -> 255

let rtype_of_code = function
  | 1 -> Some T_a
  | 2 -> Some T_ns
  | 5 -> Some T_cname
  | 6 -> Some T_soa
  | 12 -> Some T_ptr
  | 13 -> Some T_hinfo
  | 15 -> Some T_mx
  | 16 -> Some T_txt
  | 103 -> Some T_unspec
  | 251 -> Some T_ixfr
  | 252 -> Some T_axfr
  | 255 -> Some T_any
  | _ -> None

let rtype_name = function
  | T_a -> "A"
  | T_ns -> "NS"
  | T_cname -> "CNAME"
  | T_soa -> "SOA"
  | T_ptr -> "PTR"
  | T_hinfo -> "HINFO"
  | T_mx -> "MX"
  | T_txt -> "TXT"
  | T_unspec -> "UNSPEC"
  | T_ixfr -> "IXFR"
  | T_axfr -> "AXFR"
  | T_any -> "ANY"

let rclass_code = function C_in -> 1 | C_none -> 254 | C_any -> 255

let rclass_of_code = function
  | 1 -> Some C_in
  | 254 -> Some C_none
  | 255 -> Some C_any
  | _ -> None

let rdata_type = function
  | A _ -> T_a
  | Ns _ -> T_ns
  | Cname _ -> T_cname
  | Soa _ -> T_soa
  | Ptr _ -> T_ptr
  | Hinfo _ -> T_hinfo
  | Mx _ -> T_mx
  | Txt _ -> T_txt
  | Unspec _ -> T_unspec

let matches ~qtype rtype =
  match qtype with
  | T_any -> true
  | T_axfr | T_ixfr -> false
  | q -> q = rtype

let make ?(ttl = 3600l) name rdata = { name; ttl; rclass = C_in; rdata }

let equal_soa a b =
  Name.equal a.mname b.mname && Name.equal a.rname b.rname
  && Int32.equal a.serial b.serial && Int32.equal a.refresh b.refresh
  && Int32.equal a.retry b.retry && Int32.equal a.expire b.expire
  && Int32.equal a.minimum b.minimum

let equal_rdata a b =
  match (a, b) with
  | A x, A y -> Int32.equal x y
  | Ns x, Ns y | Cname x, Cname y | Ptr x, Ptr y -> Name.equal x y
  | Soa x, Soa y -> equal_soa x y
  | Hinfo (c1, o1), Hinfo (c2, o2) -> String.equal c1 c2 && String.equal o1 o2
  | Mx (p1, n1), Mx (p2, n2) -> p1 = p2 && Name.equal n1 n2
  | Txt x, Txt y -> List.equal String.equal x y
  | Unspec x, Unspec y -> String.equal x y
  | (A _ | Ns _ | Cname _ | Soa _ | Ptr _ | Hinfo _ | Mx _ | Txt _ | Unspec _), _ ->
      false

let pp_rdata ppf = function
  | A ip -> Format.fprintf ppf "A %s" (Transport.Address.ip_to_string ip)
  | Ns n -> Format.fprintf ppf "NS %a" Name.pp n
  | Cname n -> Format.fprintf ppf "CNAME %a" Name.pp n
  | Soa s ->
      Format.fprintf ppf "SOA %a %a %ld" Name.pp s.mname Name.pp s.rname s.serial
  | Ptr n -> Format.fprintf ppf "PTR %a" Name.pp n
  | Hinfo (cpu, os) -> Format.fprintf ppf "HINFO %S %S" cpu os
  | Mx (pref, n) -> Format.fprintf ppf "MX %d %a" pref Name.pp n
  | Txt ss -> Format.fprintf ppf "TXT %s" (String.concat " " (List.map (Printf.sprintf "%S") ss))
  | Unspec s -> Format.fprintf ppf "UNSPEC <%d bytes>" (String.length s)

let pp ppf t =
  Format.fprintf ppf "%a %ld %s %a" Name.pp t.name t.ttl
    (match t.rclass with C_in -> "IN" | C_none -> "NONE" | C_any -> "ANY")
    pp_rdata t.rdata
