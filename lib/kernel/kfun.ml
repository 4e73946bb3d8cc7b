(* Kernel function registry and call-site instrumentation. Every model
   kernel function is registered once (at module initialisation) and gets
   a unique function id; [call] brackets its execution with function
   entry/exit events and maintains the context's simulated call stack,
   exactly the information the paper's compiler pass emits (section 5.1).

   Functions are assumed to return exactly once; [call] restores the
   stack even on exceptions, matching the paper's noreturn exclusion. *)

let names : (int, string) Hashtbl.t = Hashtbl.create 64
let ids : (string, int) Hashtbl.t = Hashtbl.create 64
let next = ref 1

let register name =
  match Hashtbl.find_opt ids name with
  | Some id -> id
  | None ->
    let id = !next in
    incr next;
    Hashtbl.add ids name id;
    Hashtbl.add names id name;
    id

let name id =
  match Hashtbl.find_opt names id with
  | Some n -> n
  | None -> Printf.sprintf "f%d" id

let id_of_name n = Hashtbl.find_opt ids n

let pop ctx fn =
  (match ctx.Ctx.stack with
  | _ :: rest -> ctx.Ctx.stack <- rest
  | [] -> ());
  if Ctx.tracing ctx then Ctx.emit ctx (Kevent.Fn_exit fn)

(* The match form pops on every exit — a normal return, a kernel panic,
   or the scheduler's [Sched.Aborted] discontinuation of a suspended
   task — without allocating a [Fun.protect] finaliser per call. Entry
   and exit events are built only while a sink listens. *)
let call ctx fn f =
  if Ctx.tracing ctx then Ctx.emit ctx (Kevent.Fn_enter fn);
  ctx.Ctx.stack <- fn :: ctx.Ctx.stack;
  match f () with
  | v -> pop ctx fn; v
  | exception e -> pop ctx fn; raise e
