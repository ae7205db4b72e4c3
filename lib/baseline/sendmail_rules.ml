type decision = { network : string; site : string; user : string }

(* Addresses and patterns are token sequences; the delimiters
   themselves are tokens, so joining tokens reconstructs the text. *)
type token = string

let tokenize s =
  let out = ref [] and buf = Buffer.create 16 in
  let flush () =
    if Buffer.length buf > 0 then begin
      out := Buffer.contents buf :: !out;
      Buffer.clear buf
    end
  in
  String.iter
    (fun c ->
      match c with
      | '@' | '!' | '.' | '%' ->
          flush ();
          out := String.make 1 c :: !out
      | c -> Buffer.add_char buf (Char.lowercase_ascii c))
    s;
  flush ();
  List.rev !out

type pat_elt = Lit of token | Wild_plus | Wild_star

let parse_pattern p =
  List.concat_map
    (fun part ->
      match part with
      | "" -> []
      | "$+" -> [ Wild_plus ]
      | "$*" -> [ Wild_star ]
      | lit -> List.map (fun t -> Lit t) (tokenize lit))
    (String.split_on_char ' ' p)

(* Backtracking match; wildcards capture token runs in order. *)
let match_pattern pattern tokens =
  let rec go pat toks captures =
    match (pat, toks) with
    | [], [] -> Some (List.rev captures)
    | Lit l :: pr, t :: tr -> if String.equal l t then go pr tr captures else None
    | Lit _ :: _, [] -> None
    | Wild_plus :: pr, _ -> consume pr toks captures 1
    | Wild_star :: pr, _ -> consume pr toks captures 0
    | [], _ :: _ -> None
  and consume pr toks captures min_take =
    (* shortest-first, like sendmail's $+ *)
    let n = List.length toks in
    let rec try_take k =
      if k > n then None
      else begin
        let taken = List.filteri (fun i _ -> i < k) toks in
        let rest = List.filteri (fun i _ -> i >= k) toks in
        match go pr rest (String.concat "" taken :: captures) with
        | Some _ as hit -> hit
        | None -> try_take (k + 1)
      end
    in
    try_take min_take
  in
  go pattern tokens []

(* "$n" substitution in a template string. *)
let subst template captures =
  let buf = Buffer.create (String.length template) in
  let n = String.length template in
  let rec go i =
    if i >= n then ()
    else if i + 1 < n && template.[i] = '$' && template.[i + 1] >= '1'
            && template.[i + 1] <= '9' then begin
      let idx = Char.code template.[i + 1] - Char.code '1' in
      (match List.nth_opt captures idx with
      | Some cap -> Buffer.add_string buf cap
      | None -> ());
      go (i + 2)
    end
    else begin
      Buffer.add_char buf template.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents buf

type action =
  | Rewrite of string
  | Resolve of { network : string; site : string; user : string }

type rule = { pattern : pat_elt list; action : action }

let rewrite_rule ~pattern ~into = { pattern = parse_pattern pattern; action = Rewrite into }

let resolve_rule ~pattern ~network ~site ~user =
  { pattern = parse_pattern pattern; action = Resolve { network; site; user } }

type t = { rules : rule list }

let create rules = { rules }

let route t address =
  let rec run address iterations =
    if iterations > 16 then Error "rewriting loop"
    else begin
      let tokens = tokenize address in
      if tokens = [] then Error "empty address"
      else begin
        let rec first_match = function
          | [] -> Error (Printf.sprintf "no rule matches %S" address)
          | rule :: rest -> (
              match match_pattern rule.pattern tokens with
              | None -> first_match rest
              | Some captures -> (
                  match rule.action with
                  | Rewrite into -> run (subst into captures) (iterations + 1)
                  | Resolve { network; site; user } ->
                      Ok
                        {
                          network = subst network captures;
                          site = subst site captures;
                          user = subst user captures;
                        }))
        in
        first_match t.rules
      end
    end
  in
  run address 0

let classic () =
  create
    [
      (* bang paths become internet-style before routing *)
      rewrite_rule ~pattern:"$+ ! $+" ~into:"$2@$1.uucp";
      resolve_rule ~pattern:"$+ @ $+ . uucp" ~network:"uucp" ~site:"$2" ~user:"$1";
      resolve_rule ~pattern:"$+ @ $+ . arpa" ~network:"arpanet" ~site:"$2" ~user:"$1";
      resolve_rule ~pattern:"$+ . $+ @ gv" ~network:"grapevine" ~site:"$2" ~user:"$1";
      (* default: treat anything else as local internet *)
      resolve_rule ~pattern:"$+ @ $+" ~network:"internet" ~site:"$2" ~user:"$1";
    ]
