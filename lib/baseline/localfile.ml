type t = {
  file_read_ms : float;
  parse_per_entry_ms : float;
  mutable file : string;
}

let create ?(file_read_ms = 0.0) ?(parse_per_entry_ms = 0.0) () =
  { file_read_ms; parse_per_entry_ms; file = "" }

(* One line per entry: service<TAB>host<TAB>hex(binding bytes). *)
let hex s =
  let b = Buffer.create (String.length s * 2) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let unhex s =
  if String.length s mod 2 <> 0 then invalid_arg "Localfile.unhex";
  String.init (String.length s / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

let entry_line ~service ~host binding =
  Printf.sprintf "%s\t%s\t%s\n" service host (hex (Hrpc.Binding.to_bytes binding))

let parse_line line =
  match String.split_on_char '\t' line with
  | [ service; host; bytes ] -> (
      match Hrpc.Binding.of_bytes (unhex bytes) with
      | exception Invalid_argument _ -> None
      | binding -> Some (service, host, binding))
  | _ -> None

let parse_file t =
  String.split_on_char '\n' t.file
  |> List.filter (fun l -> l <> "")
  |> List.filter_map parse_line

let register t ~service ~host binding =
  let kept =
    parse_file t
    |> List.filter (fun (s, h, _) -> not (String.equal s service && String.equal h host))
  in
  let buf = Buffer.create 1024 in
  List.iter (fun (s, h, b) -> Buffer.add_string buf (entry_line ~service:s ~host:h b)) kept;
  Buffer.add_string buf (entry_line ~service ~host binding);
  t.file <- Buffer.contents buf

let replace_all t entries =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (service, host, binding) -> Buffer.add_string buf (entry_line ~service ~host binding))
    entries;
  t.file <- Buffer.contents buf

let entry_count t = List.length (parse_file t)

let import t ~service ~host =
  Sim.Engine.charge t.file_read_ms;
  let entries = parse_file t in
  Sim.Engine.charge (t.parse_per_entry_ms *. float_of_int (List.length entries));
  match
    List.find_opt
      (fun (s, h, _) -> String.equal s service && String.equal h host)
      entries
  with
  | Some (_, _, binding) -> Ok binding
  | None -> Error (Printf.sprintf "no entry for %s@%s" service host)
