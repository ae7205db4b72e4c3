type t = string list (* lowercase labels, most-specific first *)

let root = []

let fold_label l = String.lowercase_ascii l

let validate_label l =
  let n = String.length l in
  if n = 0 then invalid_arg "Name: empty label";
  if n > 63 then invalid_arg (Printf.sprintf "Name: label %S exceeds 63 bytes" l)

let validate_total labels =
  let total = List.fold_left (fun acc l -> acc + String.length l + 1) 0 labels in
  if total > 255 then invalid_arg "Name: name exceeds 255 bytes"

let of_labels labels =
  List.iter validate_label labels;
  validate_total labels;
  List.map fold_label labels

let of_folded_labels labels = labels

let of_string s =
  let s =
    let n = String.length s in
    if n > 0 && s.[n - 1] = '.' then String.sub s 0 (n - 1) else s
  in
  if s = "" then root else of_labels (String.split_on_char '.' s)

let to_string = function [] -> "." | labels -> String.concat "." labels
let labels t = t
let equal = List.equal String.equal
let compare = List.compare String.compare
let hash t = Hashtbl.hash t
let is_root t = t = []
let label_count = List.length

let prepend label t =
  validate_label label;
  let t' = fold_label label :: t in
  validate_total t';
  t'

let parent = function [] -> None | _ :: rest -> Some rest

let is_subdomain ~of_ t =
  let rec suffix xs n =
    (* drop the first n labels *)
    if n = 0 then xs else match xs with [] -> [] | _ :: rest -> suffix rest (n - 1)
  in
  let extra = List.length t - List.length of_ in
  extra >= 0 && equal (suffix t extra) of_

let append a b = a @ b
let pp ppf t = Format.pp_print_string ppf (to_string t)
