(* Surface audit: which exports of lib/ does another module use, and
   which of their optional parameters does a call pass?

   Run from the repository root after `dune build @check`, which writes
   a .cmt for every implementation and a .cmti for every interface under
   _build/default (`make check` does both):

     dune exec tools/surface_audit.exe

   - An export is a top-level [val] of a lib/**/*.mli. It is used when a
     compilation unit other than its own names it. A module included or
     packed as a first-class module uses every value in it; a functor
     argument uses the values the functor's parameter asks for, or every
     value when the parameter asks for all of them. A module alias
     (dune's library wrappers are made of them) and an [open] use none.
   - An optional parameter of an export is passed when an application
     of the export supplies it, as [~x:] or [?x:]. A call from a sibling
     in the export's own module counts. The [None] that the type checker
     fills in for an omitted optional argument does not.

   Uses from test/ are counted apart. The tool prints the counts, lists
   each lib/ export that nothing uses and each optional parameter that
   nothing passes, and exits 1 when there is one. *)

open Typedtree

let rec files_under dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun entry ->
         let path = Filename.concat dir entry in
         if Sys.is_directory path then files_under path else [ path ])

type unit_file = {
  modname : string;  (** [Dns__Server] *)
  source : string;  (** [lib/dns/server.ml] *)
  annots : Cmt_format.binary_annots;
}

(* Every .cmt or .cmti dune wrote, dune's generated library wrappers
   (.ml-gen) included. *)
let read_units suffix =
  files_under (Filename.concat "_build" "default")
  |> List.filter (fun f -> Filename.check_suffix f suffix)
  |> List.filter_map (fun f ->
         let cmt = Cmt_format.read_cmt f in
         Option.map
           (fun source ->
             { modname = cmt.cmt_modname; source; annots = cmt.cmt_annots })
           cmt.cmt_sourcefile)

let in_dir dir u = String.starts_with ~prefix:(dir ^ "/") u.source

type use = { mutable outside_tests : bool; mutable by_tests : bool }

let unused use = not (use.outside_tests || use.by_tests)
let fresh () = { outside_tests = false; by_tests = false }

let mark ~test use =
  if test then use.by_tests <- true else use.outside_tests <- true

type export = {
  name : string;
  used : use;
  options : (string * use) list;  (** by label *)
}

type interface = {
  unit_name : string;
  mli : string;
  exports : export list;
  fields : string array;
      (** the names of the fields of the unit's runtime block, in order *)
}

let rec optional_labels ty =
  match Types.get_desc ty with
  | Types.Tarrow (Optional l, _, rest, _) -> l :: optional_labels rest
  | Types.Tarrow (_, _, rest, _) -> optional_labels rest
  | _ -> []

(* A compilation unit's runtime block holds one field for each value,
   module, exception, extension constructor and class of its interface,
   in order; externals and module aliases take none. *)
let runtime_fields (sg : Types.signature) =
  List.filter_map
    (function
      | Types.Sig_value (_, { val_kind = Val_prim _; _ }, _)
      | Sig_type _ | Sig_modtype _ | Sig_class_type _
      | Sig_module (_, Mp_absent, _, _, _) ->
          None
      | Sig_value (id, _, _)
      | Sig_typext (id, _, _, _)
      | Sig_module (id, _, _, _, _)
      | Sig_class (id, _, _, _) ->
          Some (Ident.name id))
    sg
  |> Array.of_list

(* Interfaces by unit name, and their exports by uid. *)
let interfaces = Hashtbl.create 256
let by_uid = Hashtbl.create 2048

let add_interface u =
  match u.annots with
  | Cmt_format.Interface sg ->
      let exports =
        List.filter_map
          (fun item ->
            match item.sig_desc with
            | Tsig_value vd ->
                let options =
                  List.map
                    (fun l -> (l, fresh ()))
                    (optional_labels vd.val_val.val_type)
                in
                let e = { name = vd.val_name.txt; used = fresh (); options } in
                Hashtbl.replace by_uid vd.val_val.val_uid (u.modname, e);
                Some e
            | _ -> None)
          sg.sig_items
      in
      Hashtbl.replace interfaces u.modname
        {
          unit_name = u.modname;
          mli = u.source;
          exports;
          fields = runtime_fields sg.sig_type;
        }
  | _ -> ()

(* The aliases of dune's library wrappers: [Dns.Server] is
   [Dns__Server]. *)
let aliases = Hashtbl.create 256

let rec flatten = function
  | Path.Pident id -> Some [ Ident.name id ]
  | Path.Pdot (p, s) -> Option.map (fun l -> l @ [ s ]) (flatten p)
  | Path.Papply _ | Path.Pextra_ty _ -> None

let rec resolve = function
  | a :: b :: rest when Hashtbl.mem aliases (a, b) ->
      resolve (Hashtbl.find aliases (a, b) @ rest)
  | names -> names

let add_aliases u =
  match u.annots with
  | Cmt_format.Implementation str ->
      List.iter
        (fun item ->
          match item.str_desc with
          | Tstr_module
              {
                mb_id = Some id;
                mb_expr = { mod_desc = Tmod_ident (p, _); _ };
                _;
              } ->
              Option.iter
                (Hashtbl.replace aliases (u.modname, Ident.name id))
                (flatten p)
          | _ -> ())
        str.str_items
  | _ -> ()

let is_alias me = match me.mod_desc with Tmod_ident _ -> true | _ -> false

(* Walks one implementation, marking the exports it names and the
   optional parameters it passes. *)
let scan u str =
  let test = in_dir "test" u in
  let own =
    Option.fold ~none:[]
      ~some:(fun i -> i.exports)
      (Hashtbl.find_opt interfaces u.modname)
  in
  let toplevel =
    List.concat_map
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
            List.concat_map (fun vb -> pat_bound_idents vb.vb_pat) vbs
        | _ -> [])
      str.str_items
  in
  (* Uids are numbered per compilation, so in the export's own .ml its
     uid can name some other definition: there, the export is the
     top-level binding of its name. *)
  let other_unit_export (vd : Types.value_description) =
    match Hashtbl.find_opt by_uid vd.val_uid with
    | Some (unit_name, e) when unit_name <> u.modname -> Some e
    | _ -> None
  in
  let export_of path vd =
    match path with
    | Path.Pident id when List.exists (Ident.same id) toplevel ->
        List.find_opt (fun e -> e.name = Ident.name id) own
    | _ -> other_unit_export vd
  in
  let interface_of path =
    match Option.map resolve (flatten path) with
    | Some [ unit_name ] -> Hashtbl.find_opt interfaces unit_name
    | _ -> None
  in
  let use_module path =
    Option.iter
      (fun i -> List.iter (fun e -> mark ~test e.used) i.exports)
      (interface_of path)
  in
  let use_fields path fields =
    Option.iter
      (fun i ->
        List.iter
          (fun (field, _) ->
            List.iter
              (fun e -> if e.name = i.fields.(field) then mark ~test e.used)
              i.exports)
          fields)
      (interface_of path)
  in
  let passed = function
    | (Asttypes.Optional l | Labelled l), Some arg
      when arg.exp_loc <> Location.none ->
        Some l
    | _ -> None
  in
  let super = Tast_iterator.default_iterator in
  let expr self e =
    (match e.exp_desc with
    | Texp_ident (_, _, vd) ->
        Option.iter (fun e -> mark ~test e.used) (other_unit_export vd)
    | Texp_apply ({ exp_desc = Texp_ident (path, _, vd); _ }, args) ->
        Option.iter
          (fun e ->
            List.iter
              (fun l -> Option.iter (mark ~test) (List.assoc_opt l e.options))
              (List.filter_map passed args))
          (export_of path vd)
    | _ -> ());
    match e.exp_desc with
    | Texp_letmodule (_, _, _, me, body) when is_alias me ->
        self.Tast_iterator.expr self body
    | _ -> super.expr self e
  in
  let module_expr self me =
    match me.mod_desc with
    | Tmod_apply
        ( f,
          {
            mod_desc =
              Tmod_constraint
                ( { mod_desc = Tmod_ident (path, _); _ },
                  _,
                  Tmodtype_implicit,
                  _ );
            _;
          },
          Tcoerce_structure (fields, _) ) ->
        use_fields path fields;
        self.Tast_iterator.module_expr self f
    | Tmod_ident (path, _) -> use_module path
    | _ -> super.module_expr self me
  in
  let module_binding self mb =
    if not (is_alias mb.mb_expr) then super.module_binding self mb
  in
  let open_declaration self od =
    if not (is_alias od.open_expr) then super.open_declaration self od
  in
  let iter =
    { super with expr; module_expr; module_binding; open_declaration }
  in
  iter.structure iter str

(* "Dns__Server" -> "Dns.Server" *)
let rec display name =
  match String.index_from_opt name 1 '_' with
  | Some i when i + 1 < String.length name && name.[i + 1] = '_' ->
      String.sub name 0 i ^ "."
      ^ display (String.sub name (i + 2) (String.length name - i - 2))
  | _ -> name

let () =
  List.iter add_interface (List.filter (in_dir "lib") (read_units ".cmti"));
  let implementations = read_units ".cmt" in
  List.iter add_aliases implementations;
  List.iter
    (fun u ->
      match u.annots with
      | Cmt_format.Implementation str -> scan u str
      | _ -> ())
    implementations;
  let interfaces =
    List.sort
      (fun a b -> compare a.mli b.mli)
      (List.of_seq (Hashtbl.to_seq_values interfaces))
  in
  let exports =
    List.concat_map (fun i -> List.map (fun e -> (i, e)) i.exports) interfaces
  in
  let options =
    List.concat_map
      (fun (i, e) -> List.map (fun (l, use) -> (i, e, l, use)) e.options)
      exports
  in
  let counts uses =
    let count p = List.length (List.filter p uses) in
    Printf.sprintf "%d (used outside tests %d, only by tests %d, unused %d)"
      (List.length uses)
      (count (fun u -> u.outside_tests))
      (count (fun u -> u.by_tests && not u.outside_tests))
      (count unused)
  in
  Printf.printf "exports in lib/**/*.mli: %s\n"
    (counts (List.map (fun (_, e) -> e.used) exports));
  Printf.printf "their optional parameters: %s\n"
    (counts (List.map (fun (_, _, _, use) -> use) options));
  let failures = ref 0 in
  List.iter
    (fun (i, e) ->
      if unused e.used then (
        incr failures;
        Printf.printf "unused export: %s.%s (%s)\n" (display i.unit_name)
          e.name i.mli))
    exports;
  List.iter
    (fun (i, e, l, use) ->
      if unused use then (
        incr failures;
        Printf.printf "never-passed optional parameter: %s.%s ?%s (%s)\n"
          (display i.unit_name) e.name l i.mli))
    options;
  exit (if !failures > 0 then 1 else 0)
