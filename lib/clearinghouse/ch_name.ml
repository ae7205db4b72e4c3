type t = { local : string; domain : string; org : string }

let norm = String.lowercase_ascii

let make ~local ~domain ~org =
  if local = "" || domain = "" || org = "" then
    invalid_arg "Ch_name.make: empty part";
  { local = norm local; domain = norm domain; org = norm org }

let of_string s =
  match String.split_on_char ':' s with
  | [ local; domain; org ] -> make ~local ~domain ~org
  | _ -> invalid_arg (Printf.sprintf "Ch_name.of_string: %S" s)

let to_string t = Printf.sprintf "%s:%s:%s" t.local t.domain t.org
let equal a b = a = b
let hash = Hashtbl.hash
let same_domain a b = a.domain = b.domain && a.org = b.org

let idl_ty =
  Wire.Idl.T_struct
    [ ("local", Wire.Idl.T_string); ("domain", T_string); ("org", T_string) ]

let to_value t =
  Wire.Value.Struct
    [ ("local", Wire.Value.Str t.local); ("domain", Str t.domain); ("org", Str t.org) ]

let of_value v =
  let f name = Wire.Value.get_str (Wire.Value.field v name) in
  make ~local:(f "local") ~domain:(f "domain") ~org:(f "org")
