let prog = 200300
let vers = 1
let proc_exec = 1

type outcome = { status : int; output : string }

let exec_sign =
  Wire.Idl.signature
    ~arg:
      (Wire.Idl.T_struct
         [ ("command", Wire.Idl.T_string); ("args", Wire.Idl.T_array Wire.Idl.T_string) ])
    ~res:(Wire.Idl.T_struct [ ("status", Wire.Idl.T_int); ("output", Wire.Idl.T_string) ])

type command = { cpu_ms : float; run : string list -> string }

type t = {
  server : Hrpc.Server.t;
  commands : (string, command) Hashtbl.t;
  mutable exec_count : int;
}

let create stack ?(suite = Hrpc.Component.sunrpc_suite) ?port () =
  let server = Hrpc.Server.create stack ~suite ?port ~prog ~vers () in
  let t = { server; commands = Hashtbl.create 8; exec_count = 0 } in
  Hrpc.Server.register server ~procnum:proc_exec ~sign:exec_sign (fun v ->
      let command = Wire.Value.get_str (Wire.Value.field v "command") in
      let args =
        List.map Wire.Value.get_str (Wire.Value.get_array (Wire.Value.field v "args"))
      in
      let status, output =
        match Hashtbl.find_opt t.commands command with
        | None -> (127, Printf.sprintf "%s: command not found" command)
        | Some c -> (
            t.exec_count <- t.exec_count + 1;
            Sim.Engine.charge c.cpu_ms;
            match c.run args with
            | out -> (0, out)
            | exception Failure m -> (1, m))
      in
      Wire.Value.Struct
        [ ("status", Wire.Value.int status); ("output", Wire.Value.Str output) ]);
  t

let register_command t name ~cpu_ms run = Hashtbl.replace t.commands name { cpu_ms; run }
let binding t = Hrpc.Server.binding t.server
let start t = Hrpc.Server.start t.server
let stop t = Hrpc.Server.stop t.server
let executions t = t.exec_count
