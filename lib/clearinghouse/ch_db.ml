module Tbl = Hashtbl.Make (Ch_name)

type t = { tbl : Property.t list ref Tbl.t }

let create () = { tbl = Tbl.create 64 }

let create_object t name =
  if Tbl.mem t.tbl name then false
  else begin
    Tbl.replace t.tbl name (ref []);
    true
  end

let delete_object t name =
  let existed = Tbl.mem t.tbl name in
  Tbl.remove t.tbl name;
  existed

let exists t name = Tbl.mem t.tbl name

let store t name (p : Property.t) =
  match Tbl.find_opt t.tbl name with
  | None -> Tbl.replace t.tbl name (ref [ p ])
  | Some cell ->
      cell := List.filter (fun (q : Property.t) -> q.prop <> p.prop) !cell @ [ p ]

let retrieve t name prop =
  match Tbl.find_opt t.tbl name with
  | None -> None
  | Some cell ->
      List.find_map
        (fun (q : Property.t) -> if q.prop = prop then Some q.value else None)
        !cell

let add_member t name prop member =
  match retrieve t name prop with
  | None -> store t name (Property.group prop [ member ])
  | Some (Property.Group ms) ->
      if not (List.exists (Ch_name.equal member) ms) then
        store t name (Property.group prop (ms @ [ member ]))
  | Some (Property.Item _) ->
      invalid_arg "Ch_db.add_member: property holds an item, not a group"

let members t name prop =
  match retrieve t name prop with
  | Some (Property.Group ms) -> ms
  | Some (Property.Item _) | None -> []

let list_objects t ~domain ~org =
  let domain = String.lowercase_ascii domain and org = String.lowercase_ascii org in
  Tbl.fold
    (fun (name : Ch_name.t) _ acc ->
      if String.equal name.domain domain && String.equal name.org org then
        name.local :: acc
      else acc)
    t.tbl []
  |> List.sort String.compare
