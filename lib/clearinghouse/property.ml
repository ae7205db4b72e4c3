type value = Item of string | Group of Ch_name.t list

type t = { prop : int; value : value }

module Id = struct
  let address = 4
  let service_binding = 10
  let mailboxes = 31
  let members = 3
  let description = 1
end

let item prop s = { prop; value = Item s }
let group prop names = { prop; value = Group names }
