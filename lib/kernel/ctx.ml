(* The tracing context threaded through every kernel operation. It holds
   the live call stack (maintained by [Kfun.call]), the optional profiling
   sink receiving execution-trace events, and the interrupt-context flag:
   memory accesses made while [in_irq] are not reported, mirroring the
   paper's in_task() filter (section 5.1). *)

type t = {
  mutable sink : (Kevent.t -> unit) option;
  mutable stack : int list;            (* function ids, innermost first *)
  mutable in_irq : bool;
  mutable yield : (unit -> unit) option;
}

let create () = { sink = None; stack = []; in_irq = false; yield = None }

let tracing t = match t.sink with None -> false | Some _ -> not t.in_irq

let emit t ev =
  match t.sink with
  | None -> ()
  | Some f -> if not t.in_irq then f ev

(* Save a field, run [f], restore the field on every exit. Spelled out
   instead of [Fun.protect]: these brackets sit on hot kernel paths and
   the match form allocates no finaliser closure. *)
let with_sink t sink f =
  let saved = t.sink in
  t.sink <- Some sink;
  match f () with
  | v -> t.sink <- saved; v
  | exception e -> t.sink <- saved; raise e

let yield t =
  match t.yield with
  | None -> ()
  | Some f -> if not t.in_irq then f ()

let with_yield t hook f =
  let saved = t.yield in
  t.yield <- Some hook;
  match f () with
  | v -> t.yield <- saved; v
  | exception e -> t.yield <- saved; raise e

let with_irq t f =
  let saved = t.in_irq in
  t.in_irq <- true;
  match f () with
  | v -> t.in_irq <- saved; v
  | exception e -> t.in_irq <- saved; raise e

let innermost t = match t.stack with [] -> 0 | f :: _ -> f

let caller t = match t.stack with _ :: c :: _ -> c | [ _ ] | [] -> 0
