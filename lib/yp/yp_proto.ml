let program = 100004
let version = 2
let proc_domain = 1
let proc_match = 3
let proc_first = 4
let proc_next = 5
let map_hosts_byname = "hosts.byname"

let value_result =
  Wire.Idl.T_union ([ (0, Wire.Idl.T_opaque); (1, Wire.Idl.T_void) ], None)

let entry_result =
  Wire.Idl.T_union
    ( [
        (0, Wire.Idl.T_struct [ ("key", Wire.Idl.T_opaque); ("value", Wire.Idl.T_opaque) ]);
        (1, Wire.Idl.T_void);
      ],
      None )

let domain_sign = Wire.Idl.signature ~arg:Wire.Idl.T_string ~res:Wire.Idl.T_bool

let match_sign =
  Wire.Idl.signature
    ~arg:
      (Wire.Idl.T_struct
         [ ("domain", Wire.Idl.T_string); ("map", Wire.Idl.T_string); ("key", Wire.Idl.T_opaque) ])
    ~res:value_result

let first_sign =
  Wire.Idl.signature
    ~arg:(Wire.Idl.T_struct [ ("domain", Wire.Idl.T_string); ("map", Wire.Idl.T_string) ])
    ~res:entry_result

let next_sign =
  Wire.Idl.signature
    ~arg:
      (Wire.Idl.T_struct
         [ ("domain", Wire.Idl.T_string); ("map", Wire.Idl.T_string); ("key", Wire.Idl.T_opaque) ])
    ~res:entry_result
