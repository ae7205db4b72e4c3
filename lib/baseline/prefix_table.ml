type t = {
  stack : Transport.Netstack.stack;
  mutable entries : (string list * Hrpc.Binding.t) list; (* component lists *)
  mutable broadcast_count : int;
}

let create stack = { stack; entries = []; broadcast_count = 0 }

let components path =
  String.split_on_char '/' path |> List.filter (fun c -> c <> "")

let join cs = "/" ^ String.concat "/" cs

let mount t ~prefix binding =
  let cs = components prefix in
  t.entries <-
    (cs, binding) :: List.filter (fun (p, _) -> p <> cs) t.entries

let rec is_prefix p cs =
  match (p, cs) with
  | [], _ -> true
  | _, [] -> false
  | x :: p', y :: cs' -> String.equal x y && is_prefix p' cs'

let lookup_local t path =
  let cs = components path in
  let best =
    List.fold_left
      (fun best (p, binding) ->
        if is_prefix p cs then
          match best with
          | Some (bp, _) when List.length bp >= List.length p -> best
          | _ -> Some (p, binding)
        else best)
      None t.entries
  in
  Option.map (fun (p, binding) -> (join p, binding)) best

let locate t path =
  match lookup_local t path with
  | Some hit -> Ok (Some hit)
  | None -> (
      match components path with
      | [] -> Ok None
      | first :: _ -> (
          (* miss: broadcast for the path's first component *)
          t.broadcast_count <- t.broadcast_count + 1;
          match Broadcast_locate.locate t.stack first with
          | Error _ as e -> e
          | Ok None -> Ok None
          | Ok (Some binding) ->
              let prefix = "/" ^ first in
              mount t ~prefix binding;
              Ok (Some (prefix, binding))))

let broadcasts t = t.broadcast_count
