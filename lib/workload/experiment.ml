type cell = { label : string; paper_ms : float; measured_ms : float }

let cell ~label ~paper_ms ~measured_ms = { label; paper_ms; measured_ms }

let relative_error c =
  if c.paper_ms = 0.0 then 0.0 else (c.measured_ms -. c.paper_ms) /. c.paper_ms

let within ~tolerance c = Float.abs (relative_error c) <= tolerance

let ms v = Printf.sprintf "%.2f" v

let pad width s =
  let n = String.length s in
  if n >= width then s else s ^ String.make (width - n) ' '

let print_table ~title ~header rows =
  let all = header :: rows in
  let cols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let widths = Array.make cols 0 in
  List.iter
    (List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)))
    all;
  let print_row r =
    let cells = List.mapi (fun i cell -> pad widths.(i) cell) r in
    print_endline ("  " ^ String.concat "  " cells)
  in
  Printf.printf "%s\n" title;
  print_row header;
  print_row (List.init (List.length header) (fun i -> String.make widths.(i) '-'));
  List.iter print_row rows;
  print_newline ()

let print_cells ~title cells =
  print_table ~title
    ~header:[ "measurement"; "paper (ms)"; "ours (ms)"; "rel.err" ]
    (List.map
       (fun c ->
         [
           c.label;
           ms c.paper_ms;
           ms c.measured_ms;
           Printf.sprintf "%+.1f%%" (100.0 *. relative_error c);
         ])
       cells)

let repeat_timed ~trials f =
  let stats = Sim.Stats.create ~name:"trials" () in
  for _ = 1 to trials do
    let t0 = Sim.Engine.time () in
    f ();
    Sim.Stats.add stats (Sim.Engine.time () -. t0)
  done;
  stats
