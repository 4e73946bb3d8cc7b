(* Deterministic cooperative scheduler over the kernel's instrumented
   memory accesses.

   Tasks (a sender program, a receiver program) run as effect-handled
   coroutines: [Ctx.yield] — fired by [Var.trace] immediately before
   every instrumented, non-irq access — performs the [Yield] effect,
   suspending the task and returning control to the driver. A task with
   K profiled accesses therefore executes as K+1 resume segments:
   segment 0 runs from the start to just before the first access, and
   segment r (1 <= r <= K) performs access r and runs to just before
   access r+1 (or to completion when r = K).

   The driver picks the next task by a pure function of (seed, step):
   no wall clock, no Random state, so the same seed always produces the
   byte-identical interleaving. [Sequential] always picks the
   lowest-indexed runnable task, which for [sender; receiver] runs the
   sender to completion and then the receiver — reproducing the
   sequential runner's phase A byte-for-byte (the yields are pure
   control transfers; no kernel state is touched between suspension and
   resumption of the same task).

   [simulate] replays the exact decision procedure abstractly over
   per-task access counts, producing the merged access order a seed
   induces without executing anything. The runner's partial-order
   reduction builds on it: two seeds whose simulated orders agree on
   all conflicting accesses are equivalent, so only one representative
   runs. Driver and simulator share [rank] and the step discipline,
   so the abstraction can only diverge from reality if interference
   itself changes a task's access count (measured, and empirically rare
   — see the POR soundness property in test/test_sched.ml). *)

open Effect
open Effect.Deep

type _ Effect.t += Yield : unit Effect.t

type schedule = Sequential | Seeded of int

exception Aborted

let pp_schedule ppf = function
  | Sequential -> Fmt.string ppf "sequential"
  | Seeded s -> Fmt.pf ppf "seed:%d" s

(* splitmix-style integer mix; pure and 63-bit safe. *)
let mix ~seed ~step =
  let z = (seed * 0x9E3779B9) + (step * 0x85EBCA6B) + 0x165667B1 in
  let z = z lxor (z lsr 15) in
  let z = z * 0xC2B2AE35 in
  let z = z lxor (z lsr 13) in
  z land max_int

(* The decision procedure, shared by [choose], [run] and [iter_order]:
   among [m] runnable tasks (in ascending index order), the rank of the
   one that runs next at decision [step]. *)
let rank schedule ~step ~m =
  if m <= 1 then 0
  else match schedule with Sequential -> 0 | Seeded seed -> mix ~seed ~step mod m

let choose schedule ~step ~runnable =
  match runnable with
  | [] -> invalid_arg "Sched.choose: no runnable task"
  | _ :: _ -> List.nth runnable (rank schedule ~step ~m:(List.length runnable))

(* The index of the [r]-th task (from 0, ascending) among [i..n-1]
   satisfying [live]. *)
let rec nth_live live n i r =
  if i >= n then invalid_arg "Sched: no runnable task"
  else if live i then if r = 0 then i else nth_live live n (i + 1) (r - 1)
  else nth_live live n (i + 1) r

type task =
  | Not_started of (unit -> unit)
  | Ready of (unit, unit) continuation
  | Done

(* The decision is taken inside the yield hook, while the yielding task
   still runs: when it picks that same task again — the common case —
   the hook just returns, and no effect is performed. Only a switch to
   another task performs [Yield]; the driver then resumes the task the
   hook already picked. Decisions are numbered exactly as if every
   yield suspended the task and the driver chose among all unfinished
   tasks, so the interleaving and the decision count are those of the
   plain suspend-then-choose loop. *)
let run ?(schedule = Sequential) ctx thunks =
  let tasks = Array.of_list (List.map (fun f -> Not_started f) thunks) in
  let n = Array.length tasks in
  let live = ref n in
  let current = ref 0 in
  let next = ref (-1) in
  let steps = ref 0 in
  let unfinished i = match tasks.(i) with Done -> false | _ -> true in
  let decide () =
    let i = nth_live unfinished n 0 (rank schedule ~step:!steps ~m:!live) in
    incr steps;
    i
  in
  let finish () =
    tasks.(!current) <- Done;
    decr live
  in
  let handler =
    {
      retc = finish;
      exnc =
        (fun e ->
          finish ();
          raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield ->
            Some (fun (k : (a, unit) continuation) -> tasks.(!current) <- Ready k)
          | _ -> None);
    }
  in
  (* A crash in one task (kernel panic, fuel exhaustion) must unwind the
     other tasks' stacks too: their [Kfun.call] handlers restore the
     shared ctx stack. [discontinue] raises [Aborted] at each suspension
     point; the per-task handler marks the task [Done] and re-raises,
     and we swallow the expected [Aborted] here. *)
  let abort e =
    Array.iteri
      (fun i st ->
        match st with
        | Ready k -> (
          current := i;
          try discontinue k Aborted with Aborted -> ())
        | Not_started _ -> tasks.(i) <- Done
        | Done -> ())
      tasks;
    raise e
  in
  let hook () =
    let i = decide () in
    if i <> !current then begin
      next := i;
      perform Yield
    end
  in
  Ctx.with_yield ctx hook (fun () ->
      while !live > 0 do
        let i =
          if !next >= 0 then begin
            let i = !next in
            next := -1;
            i
          end
          else decide ()
        in
        current := i;
        match tasks.(i) with
        | Not_started f -> ( try match_with f () handler with e -> abort e)
        | Ready k -> ( try continue k () with e -> abort e)
        | Done -> assert false
      done);
  !steps

(* The driver's decision procedure replayed over access counts: task [i]
   runs [counts.(i) + 1] segments, and every segment after its first
   performs one access, reported in order. Allocates only the per-task
   progress array. *)
let iter_order schedule counts f =
  let n = Array.length counts in
  let picks = Array.make n 0 in
  let live = ref 0 in
  for i = 0 to n - 1 do
    if counts.(i) >= 0 then incr live
  done;
  let step = ref 0 in
  let runnable i = picks.(i) <= counts.(i) in
  while !live > 0 do
    let i = nth_live runnable n 0 (rank schedule ~step:!step ~m:!live) in
    incr step;
    let p = picks.(i) in
    if p > 0 then f i (p - 1);
    picks.(i) <- p + 1;
    if p = counts.(i) then decr live
  done

let simulate schedule counts =
  let order = ref [] in
  iter_order schedule counts (fun task i -> order := (task, i) :: !order);
  List.rev !order
