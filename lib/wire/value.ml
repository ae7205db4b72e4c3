type t =
  | Void
  | Int of int32
  | Uint of int32
  | Hyper of int64
  | Bool of bool
  | Str of string
  | Opaque of string
  | Enum of int
  | Array of t list
  | Struct of (string * t) list
  | Union of int * t
  | Opt of t option

let rec equal a b =
  match (a, b) with
  | Void, Void -> true
  | Int x, Int y | Uint x, Uint y -> Int32.equal x y
  | Hyper x, Hyper y -> Int64.equal x y
  | Bool x, Bool y -> x = y
  | Str x, Str y | Opaque x, Opaque y -> String.equal x y
  | Enum x, Enum y -> x = y
  | Array xs, Array ys -> List.length xs = List.length ys && List.for_all2 equal xs ys
  | Struct xs, Struct ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (n1, v1) (n2, v2) -> String.equal n1 n2 && equal v1 v2) xs ys
  | Union (d1, v1), Union (d2, v2) -> d1 = d2 && equal v1 v2
  | Opt x, Opt y -> (
      match (x, y) with
      | None, None -> true
      | Some x, Some y -> equal x y
      | None, Some _ | Some _, None -> false)
  | ( (Void | Int _ | Uint _ | Hyper _ | Bool _ | Str _ | Opaque _ | Enum _
      | Array _ | Struct _ | Union _ | Opt _),
      _ ) ->
      false

let rec pp ppf = function
  | Void -> Format.pp_print_string ppf "void"
  | Int v -> Format.fprintf ppf "%ld" v
  | Uint v -> Format.fprintf ppf "%luu" v
  | Hyper v -> Format.fprintf ppf "%LdL" v
  | Bool b -> Format.pp_print_bool ppf b
  | Str s -> Format.fprintf ppf "%S" s
  | Opaque s -> Format.fprintf ppf "opaque<%d>" (String.length s)
  | Enum e -> Format.fprintf ppf "enum:%d" e
  | Array xs ->
      Format.fprintf ppf "[@[%a@]]"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") pp)
        xs
  | Struct fs ->
      let pp_field ppf (n, v) = Format.fprintf ppf "%s=%a" n pp v in
      Format.fprintf ppf "{@[%a@]}"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") pp_field)
        fs
  | Union (d, v) -> Format.fprintf ppf "union(%d: %a)" d pp v
  | Opt None -> Format.pp_print_string ppf "none"
  | Opt (Some v) -> Format.fprintf ppf "some(%a)" pp v

let to_string v = Format.asprintf "%a" pp v

let rec node_count = function
  | Void | Int _ | Uint _ | Hyper _ | Bool _ | Str _ | Opaque _ | Enum _ -> 1
  | Array xs -> List.fold_left (fun acc v -> acc + node_count v) 1 xs
  | Struct fs -> List.fold_left (fun acc (_, v) -> acc + node_count v) 1 fs
  | Union (_, v) -> 1 + node_count v
  | Opt None -> 1
  | Opt (Some v) -> 1 + node_count v

let int i = Int (Int32.of_int i)
let str s = Str s

let shape_error what v =
  invalid_arg (Printf.sprintf "Value.%s: got %s" what (to_string v))

let get_int = function
  | Int v | Uint v -> Int32.to_int v
  | Enum e -> e
  | v -> shape_error "get_int" v

let get_str = function Str s -> s | v -> shape_error "get_str" v
let get_bool = function Bool b -> b | v -> shape_error "get_bool" v
let get_array = function Array xs -> xs | v -> shape_error "get_array" v

let field v name =
  match v with
  | Struct fs -> (
      match List.assoc_opt name fs with
      | Some f -> f
      | None -> invalid_arg (Printf.sprintf "Value.field: no field %S in %s" name (to_string v)))
  | _ -> shape_error "field" v
