(** The per-system binding protocols an NSM executes.

    "Insular clients/servers have established binding protocols that
    they execute, and they expect their peers to execute the
    corresponding parts of the protocol." Each constructor below is
    one such protocol; {!resolve} runs it and yields a
    system-independent {!Binding.t}. *)

type t =
  | Static of Binding.t
      (** binding already known (compiled in, or read from a file) *)
  | Sun_portmapper of {
      host : Transport.Address.ip;
      prog : int;
      vers : int;
      suite : Component.protocol_suite;
    }
      (** ask the host's portmapper for the program's port *)
  | Clearinghouse_binding of {
      ch : Transport.Address.t;
      service : Clearinghouse.Ch_name.t;
      credentials : Clearinghouse.Ch_proto.credentials;
    }
      (** fetch a serialized binding from the service object's
          binding property *)

val resolve :
  Transport.Netstack.stack -> t -> (Binding.t, Rpc.Control.error) result
