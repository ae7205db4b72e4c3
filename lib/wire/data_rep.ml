type t = Xdr | Courier

let name = function Xdr -> "xdr" | Courier -> "courier"

let of_name = function
  | "xdr" -> Some Xdr
  | "courier" -> Some Courier
  | _ -> None

let equal a b = a = b
let alignment = function Xdr -> 4 | Courier -> 2

let encode t ?check ty wr v =
  match t with
  | Xdr -> Xdr.encode ?check ty wr v
  | Courier -> Courier.encode ?check ty wr v

let decode t ty rd =
  match t with Xdr -> Xdr.decode ty rd | Courier -> Courier.decode ty rd

let to_string t ty v =
  match t with Xdr -> Xdr.to_string ty v | Courier -> Courier.to_string ty v

let of_string t ty s =
  match t with Xdr -> Xdr.of_string ty s | Courier -> Courier.of_string ty s
