(** Decode raw syscall results into trace ASTs — the role strace's
    output decoding plays in the paper (section 5.2). Deliberately
    fine-grained: multi-line outputs become one child per line, stat
    buffers one child per field, so divergence is localised to the
    smallest result component. *)

val decode_result : Kit_kernel.Interp.result -> Ast.t
(** One call result as a ["callN:name"] node with argument, ret, errno
    and payload children. *)

val decode_trace : Kit_kernel.Interp.result list -> Ast.t
(** A whole receiver execution as a single ["trace"] tree. *)

val decode_trace_against :
  Kit_kernel.Interp.result list -> Ast.t -> Kit_kernel.Interp.result list ->
  Ast.t
(** [decode_trace_against base_results base_trace results], where
    [base_trace] is [decode_trace base_results], is equal to
    [decode_trace results] ({!Ast.equal}). Each call node whose index,
    call (physically) and return value match the baseline's is the
    baseline's node, shared rather than rebuilt; when all match, the
    result is [base_trace] itself. *)
