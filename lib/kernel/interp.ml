(* The test-program interpreter (the model's Syzkaller executor): runs a
   program's calls in order for a given process, resolving resource
   references against earlier return values, and brackets each call with
   Sys_enter/Sys_exit trace events so profiles can attribute memory
   accesses to syscall indices. *)

module Program = Kit_abi.Program
module Value = Kit_abi.Value

type result = {
  index : int;
  call : Program.call;
  ret : Sysret.t;
}

(* [rets.(j)] holds call j's return value for j < [done_]; references
   to later calls (or out of range) resolve to -1. *)
let resolve_arg rets done_ = function
  | Value.Ref i -> Value.Int (if i >= 0 && i < done_ then rets.(i) else -1)
  | (Value.Int _ | Value.Str _) as v -> v

let is_ref = function Value.Ref _ -> true | Value.Int _ | Value.Str _ -> false

(* Run [prog] as process [pid]; returns per-call results in order.
   Sys_enter/Sys_exit events are built only while a sink listens, and a
   call without resource references passes its argument list through
   as is. *)
let run k ~pid prog =
  let ctx = k.State.ctx in
  let calls = Program.calls prog in
  let rets = Array.make (List.length calls) 0 in
  let rec go i acc = function
    | [] -> List.rev acc
    | call :: rest ->
      if Ctx.tracing ctx then Ctx.emit ctx (Kevent.Sys_enter i);
      let args = call.Program.args in
      let args =
        if List.exists is_ref args then List.map (resolve_arg rets i) args
        else args
      in
      let ret = Syscalls.exec k ~pid call.Program.sysno args in
      if Ctx.tracing ctx then Ctx.emit ctx (Kevent.Sys_exit i);
      rets.(i) <- ret.Sysret.ret;
      go (i + 1) ({ index = i; call; ret } :: acc) rest
  in
  go 0 [] calls
