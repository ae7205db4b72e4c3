(** The five-component HRPC model (Bershad et al. 1987).

    An RPC facility decomposes into stubs, binding protocol, data
    representation, transport protocol, and control protocol. HRPC
    makes each a "black box" chosen {e at bind time}: the same linked
    client emulates Sun RPC against a Sun server (XDR + UDP + Sun
    control + portmapper binding) and Courier against a Xerox server
    (Courier representation + TCP + Courier control + Clearinghouse
    binding).

    The data representation component lives in {!Wire.Data_rep}; this
    module names the transport and control choices and groups the
    three wire-level components into a {!protocol_suite}. (Stubs are
    {!Stub}; binding protocols are {!Bind_protocol}.) *)

type transport_kind = T_udp | T_tcp

type control_kind =
  | C_sunrpc   (** RFC 1057 messages, retransmitting over UDP *)
  | C_courier  (** Courier CALL/RETURN/ABORT/REJECT *)
  | C_raw      (** the peer's native request/response format *)

(** The three wire-level components of a binding. *)
type protocol_suite = {
  data_rep : Wire.Data_rep.t;
  transport : transport_kind;
  control : control_kind;
}

(** The suites spoken by the existing systems being emulated. *)
val sunrpc_suite : protocol_suite

val courier_suite : protocol_suite
val raw_udp_suite : protocol_suite

val suite_name : protocol_suite -> string
val transport_of_name : string -> transport_kind option
val control_of_name : string -> control_kind option
val equal_suite : protocol_suite -> protocol_suite -> bool
val pp_suite : Format.formatter -> protocol_suite -> unit
