(** The Clearinghouse Courier program: numbers and IDL signatures
    shared by {!Ch_server} and {!Ch_client}. *)

(** Courier program 2, version 3. *)
val program : int

val version : int

val proc_create_object : int
val proc_delete_object : int
val proc_store_item : int
val proc_retrieve_item : int
val proc_add_member : int
val proc_retrieve_members : int
val proc_list_objects : int

(** Credentials accompany every request; the Clearinghouse
    authenticates each access (the paper's explanation for its
    156 ms lookups versus BIND's 27 ms). *)
type credentials = { user : Ch_name.t; password : string }

val credentials_to_value : credentials -> Wire.Value.t
val credentials_of_value : Wire.Value.t -> credentials

val create_object_sign : Wire.Idl.signature
val delete_object_sign : Wire.Idl.signature
val store_item_sign : Wire.Idl.signature
val retrieve_item_sign : Wire.Idl.signature
val add_member_sign : Wire.Idl.signature
val retrieve_members_sign : Wire.Idl.signature
val list_objects_sign : Wire.Idl.signature
