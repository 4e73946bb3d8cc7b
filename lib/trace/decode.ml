(* Decode raw syscall results into trace ASTs — the role strace's output
   decoding plays in the paper's implementation (section 5.2). The
   decoding is deliberately fine-grained: multi-line outputs become one
   child per line, stat buffers one child per field, so divergence is
   localised to the smallest result component.

   Decoding feeds the packed AST constructors directly: labels and
   values are hash-consed as the nodes are built, and the recurring
   positional labels ("lineN", "argN") and small numeric values come
   from preallocated tables instead of a fresh Printf per node. *)

module Program = Kit_abi.Program
module Value = Kit_abi.Value
module Sysno = Kit_abi.Sysno
module Sysret = Kit_kernel.Sysret
module Errno = Kit_kernel.Errno
module Interp = Kit_kernel.Interp
module Intern = Kit_compact.Intern

(* Positional labels repeat on every call of every trace; table the
   common indices once. The arrays are immutable after initialisation,
   so sharing them across domains is safe. *)
let positional prefix =
  let table = Array.init 64 (fun i -> Printf.sprintf "%s%d" prefix i) in
  fun i ->
    if i >= 0 && i < Array.length table then Array.unsafe_get table i
    else Printf.sprintf "%s%d" prefix i

let line_label = positional "line"
let arg_label = positional "arg"

let int_value = Intern.string_of_small_int

let decode_payload = function
  | Sysret.P_none -> []
  | Sysret.P_str s ->
    let lines = String.split_on_char '\n' s in
    (match lines with
    | [] | [ _ ] -> [ Ast.leaf "out" s ]
    | _ :: _ ->
      [ Ast.node "out" (List.mapi (fun i l -> Ast.leaf (line_label i) l) lines)
      ])
  | Sysret.P_lines ls ->
    [ Ast.node "out" (List.mapi (fun i l -> Ast.leaf (line_label i) l) ls) ]
  | Sysret.P_stat st ->
    [ Ast.node "stat"
        [ Ast.leaf "ino" (int_value st.Sysret.inode);
          Ast.leaf "dev_minor" (int_value st.Sysret.dev_minor);
          Ast.leaf "size" (int_value st.Sysret.size);
          Ast.leaf "mtime" (int_value st.Sysret.mtime) ] ]

let decode_args args =
  List.mapi (fun i a -> Ast.leaf (arg_label i) (Value.to_string a)) args

(* One call result as an AST node. File descriptor return values are
   per-process and stable, so [ret] is deterministic by construction;
   the payload carries the interesting data. *)
let decode_result (r : Interp.result) =
  let call = r.Interp.call in
  let ret = r.Interp.ret in
  let base =
    [ Ast.leaf "ret" (int_value ret.Sysret.ret);
      Ast.leaf "errno"
        (match ret.Sysret.err with
        | None -> "0"
        | Some e -> Errno.to_string e) ]
  in
  Ast.node
    (Printf.sprintf "call%d:%s" r.Interp.index (Sysno.to_string call.Program.sysno))
    (decode_args call.Program.args @ base @ decode_payload ret.Sysret.out)

(* A whole receiver execution as a single trace tree. *)
let decode_trace results = Ast.node "trace" (List.map decode_result results)

(* [decode_result] is a pure function of the index, the call and the
   return value, so a result that agrees with the baseline's on all
   three decodes to the baseline's node: reuse it instead of building
   it again. The call is compared physically — it is the same element
   of the same program whenever the run and the baseline share the
   program value; otherwise the result is decoded afresh, which is
   merely slower. When every node is reused, the baseline tree itself
   is the answer. *)
let decode_trace_against base_results (base_trace : Ast.t) results =
  let reused = ref 0 in
  let rec go bres bkids = function
    | [] -> []
    | (r : Interp.result) :: rest -> (
      match bres, bkids with
      | (b : Interp.result) :: bres, kid :: bkids ->
        let node =
          if b.Interp.index = r.Interp.index && b.Interp.call == r.Interp.call
             && Sysret.equal b.Interp.ret r.Interp.ret
          then begin
            incr reused;
            kid
          end
          else decode_result r
        in
        node :: go bres bkids rest
      | _ -> List.map decode_result (r :: rest))
  in
  let kids = go base_results base_trace.Ast.children results in
  if !reused = base_trace.Ast.nkids && List.compare_length_with kids !reused = 0
  then base_trace
  else Ast.node "trace" kids
