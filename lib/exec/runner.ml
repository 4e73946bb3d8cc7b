(* Test case execution and non-determinism identification (paper,
   sections 4.2 and 4.3.2), in three modes.

   Sequential (the paper's two-phase mode): execution A runs the sender
   program in the sender container to completion and then the receiver
   program in the receiver container; execution B reloads the snapshot
   and runs the receiver alone. Both receiver traces are decoded to
   ASTs. The receiver is additionally re-run several times with
   different clock base offsets; result nodes that vary get their det
   flag cleared, and the flags are applied to both traces before
   comparison.

   Interleaved ([run_interleaved]): execution A instead runs sender and
   receiver as two cooperatively scheduled tasks under [Kernel.Sched] —
   every instrumented memory access is a yield point, and the schedule
   is a pure function of a seed, so the same seed always reproduces the
   byte-identical trace. The [Sched.Sequential] schedule degenerates to
   sender-then-receiver and matches [run_pair] byte-for-byte.

   Schedule search ([search_schedules]): enumerate seeds 0..N-1 for a
   test case, prune seeds that cannot differ, execute one
   representative per remaining equivalence class, and report the
   divergences no sequential order exposes. Pruning is partial-order
   reduction over the two programs' solo access sequences: two
   schedules that order every conflicting access pair (both programs
   touch the address, at least one writes) the same way are equivalent,
   so only the first seed of each class runs. The abstract replay
   ([Sched.simulate]) is driven by the same decision function as the
   real driver, so it is exact whenever interference does not change a
   program's access count.

   Three memo caches cut the execution count, all size-capped with LRU
   eviction (lookups refresh recency, so hot entries survive large
   campaigns — this replaced an earlier FIFO ring that evicted the
   hottest receivers precisely because they were old):

   - the non-determinism mask cache, keyed on the receiver program
     hash, as the paper saves masks to disk between campaigns;
   - the baseline cache, same key: execution B and the mask's
     reference run are the receiver solo from the pristine snapshot at
     the reference clock base — a function of the receiver program
     only, so test cases sharing a receiver share the trace. Decoded
     ASTs are immutable, so sharing is safe. Each entry also keeps the
     raw results the trace was decoded from: every other run of that
     receiver (execution A, interleaved runs, mask re-runs) is decoded
     against them, reusing the baseline's call node wherever index,
     call and return value agree ([Decode.decode_trace_against]) — the
     same tree [Decode.decode_trace] would build, for less work. That
     lookup is a peek: it neither counts a hit nor refreshes recency,
     so the cache's hit counts and eviction order are those of
     [baseline_trace] alone. The cache is bypassed
     entirely while the fault plane has armed faults: a poisoned VM
     must not populate it, and a cached trace must not swallow a fault
     that a real execution would have consumed. (A receiver whose solo
     run crashes or hangs never completes its first execution, so it
     can never be cached.)
   - the solo access-sequence cache, keyed on (container pid, program
     hash): schedule search needs each program's solo instrumented
     access sequence, which depends on which container runs it (the
     namespace ids differ), hence the wider key. Note what is *not*
     keyed by schedule: solo artifacts (baseline, mask, accesses) are
     schedule-independent because a solo run has exactly one task, and
     per-(receiver, schedule) traces are never cached because each
     schedule class representative executes exactly once per case.

   Execution and cache counters live in the observability plane's
   metrics registry ("exec.executions", "exec.mask_hits",
   "exec.mask_misses", "exec.mask_evictions", "exec.baseline_hits",
   "exec.baseline_misses") as always-on counters: they are campaign
   accounting, so they keep counting even through a disabled bundle.
   Registry counters are monotone and may be shared across runner
   incarnations (the supervisor reboots runners into the same bundle),
   so each runner captures the counter values at creation and reports
   per-instance deltas. *)

module Program = Kit_abi.Program
module Interp = Kit_kernel.Interp
module Fault = Kit_kernel.Fault
module Sched = Kit_kernel.Sched
module Kevent = Kit_kernel.Kevent
module Ctx = Kit_kernel.Ctx
module State = Kit_kernel.State
module Ast = Kit_trace.Ast
module Decode = Kit_trace.Decode
module Compare = Kit_trace.Compare
module Fnv = Kit_compact.Fnv
module Nondet = Kit_trace.Nondet
module Obs = Kit_obs.Obs
module Metrics = Kit_obs.Metrics

type t = {
  env : Env.t;
  obs : Obs.t;
  reruns : int;
  rerun_delta : int;
  mask_cache : (int, Ast.t) Lru.t;       (* receiver program hash -> mask *)
  baseline : bool;                       (* baseline cache enabled? *)
  baseline_cache : (int, Interp.result list * Ast.t) Lru.t;
                                         (* receiver hash -> solo results
                                            and trace at base0 *)
  access_cache : (int * int, (int * bool) array) Lru.t;
                                         (* (pid, program hash) -> solo
                                            (addr, is_write) sequence *)
  c_execs : Metrics.counter;             (* single source of truth... *)
  c_hits : Metrics.counter;
  c_misses : Metrics.counter;
  c_evictions : Metrics.counter;
  c_bhits : Metrics.counter;
  c_bmisses : Metrics.counter;
  execs0 : int;                          (* ...read as deltas from here *)
  hits0 : int;
  misses0 : int;
  evictions0 : int;
  bhits0 : int;
  bmisses0 : int;
}

let create ?(reruns = 3) ?(rerun_delta = 7_777) ?(mask_cache_cap = 4096)
    ?(baseline_cache = true) ?(baseline_cache_cap = 4096)
    ?(obs = Obs.nop) env =
  let c_execs = Metrics.counter ~always:true obs.Obs.metrics "exec.executions" in
  let c_hits = Metrics.counter ~always:true obs.Obs.metrics "exec.mask_hits" in
  let c_misses =
    Metrics.counter ~always:true obs.Obs.metrics "exec.mask_misses"
  in
  let c_evictions =
    Metrics.counter ~always:true obs.Obs.metrics "exec.mask_evictions"
  in
  let c_bhits =
    Metrics.counter ~always:true obs.Obs.metrics "exec.baseline_hits"
  in
  let c_bmisses =
    Metrics.counter ~always:true obs.Obs.metrics "exec.baseline_misses"
  in
  { env; obs; reruns; rerun_delta;
    mask_cache =
      Lru.create (max 1 mask_cache_cap)
        ~on_evict:(fun _ _ -> Metrics.inc c_evictions);
    baseline = baseline_cache;
    baseline_cache = Lru.create (max 1 baseline_cache_cap);
    access_cache = Lru.create (max 1 baseline_cache_cap);
    c_execs; c_hits; c_misses; c_evictions; c_bhits; c_bmisses;
    execs0 = Metrics.counter_value c_execs;
    hits0 = Metrics.counter_value c_hits;
    misses0 = Metrics.counter_value c_misses;
    evictions0 = Metrics.counter_value c_evictions;
    bhits0 = Metrics.counter_value c_bhits;
    bmisses0 = Metrics.counter_value c_bmisses }

let executions t = Metrics.counter_value t.c_execs - t.execs0

let baseline_cacheable t = t.baseline && Fault.schedule (Env.fault t.env) = []

(* Decode a run of [receiver] against its cached baseline, if there is
   one; a peek, so neither hit counts nor recency move. *)
let decode t receiver results =
  match
    if baseline_cacheable t then Lru.peek t.baseline_cache (Program.hash receiver)
    else None
  with
  | Some (base_results, base_trace) ->
    Decode.decode_trace_against base_results base_trace results
  | None -> Decode.decode_trace results

let exec_receiver t ~base receiver =
  Env.reset t.env ~base;
  Metrics.inc t.c_execs;
  Interp.run t.env.Env.kernel ~pid:t.env.Env.receiver_pid receiver

let run_receiver t ~base receiver =
  decode t receiver (exec_receiver t ~base receiver)

let run_pair t ~base sender receiver =
  Env.reset t.env ~base;
  Metrics.inc t.c_execs;
  let _ : Interp.result list =
    Interp.run t.env.Env.kernel ~pid:t.env.Env.sender_pid sender
  in
  let results = Interp.run t.env.Env.kernel ~pid:t.env.Env.receiver_pid receiver in
  decode t receiver results

(* Interleaved execution A: sender and receiver run as two schedulable
   tasks; [Kernel.Sched] transfers control at every instrumented memory
   access, picking the next task as a pure function of the schedule.
   [Sched.Sequential] always picks the sender first and reproduces
   [run_pair] byte-for-byte. A panic or fuel exhaustion in either task
   unwinds both and re-raises, matching the sequential crash paths. *)
let run_interleaved t ~schedule ~base sender receiver =
  Env.reset t.env ~base;
  Metrics.inc t.c_execs;
  let k = t.env.Env.kernel in
  let results = ref [] in
  let tasks =
    [ (fun () ->
        let _ : Interp.result list =
          Interp.run k ~pid:t.env.Env.sender_pid sender
        in
        ());
      (fun () -> results := Interp.run k ~pid:t.env.Env.receiver_pid receiver)
    ]
  in
  let _decisions : int = Sched.run ~schedule k.State.ctx tasks in
  decode t receiver !results

(* The solo instrumented access sequence of a program run in container
   [pid] — the raw material of partial-order reduction. Captured with a
   profiling sink, whose in_irq/instrumented filters coincide exactly
   with the scheduler's yield points, so access k of this sequence is
   what resume segment k+1 of an interleaved task performs. Memoized on
   (pid, program hash): the same program accesses different namespace
   ids in different containers. Not cached while faults are armed, for
   the same reasons as the baseline cache. *)
let solo_accesses t ~pid prog =
  let armed = Fault.schedule (Env.fault t.env) <> [] in
  let key = (pid, Program.hash prog) in
  match if armed then None else Lru.find t.access_cache key with
  | Some accesses -> accesses
  | None ->
    Env.reset t.env ~base:t.env.Env.base0;
    Metrics.inc t.c_execs;
    let k = t.env.Env.kernel in
    let acc = ref [] in
    let sink = function
      | Kevent.Mem { addr; rw; _ } ->
        acc := (addr, rw = Kevent.Write) :: !acc
      | _ -> ()
    in
    Ctx.with_sink k.State.ctx sink (fun () ->
        let _ : Interp.result list = Interp.run k ~pid prog in
        ());
    let accesses = Array.of_list (List.rev !acc) in
    if not armed then Lru.add t.access_cache key accesses;
    accesses

(* Partial-order reduction over candidate seeds 0..schedules-1. A
   conflict address is one both programs touch with at least one write;
   a schedule's class key is its simulated merged access order projected
   onto conflict addresses. Schedules with equal keys order every
   conflicting pair identically, so their executions coincide (exact up
   to interference changing a task's access count — measured by the POR
   soundness property in the test suite). The key is also compared
   against the all-sender-first order: classes equivalent to it are
   already covered by the sequential phase and never execute. *)
type sched_class = {
  cls_seeds : int list;        (* member seeds, ascending; head = representative *)
  cls_sequential : bool;       (* equivalent to the sequential order *)
}

(* One POR class under construction: its key (the conflict tokens in
   simulated order) and its member seeds, newest first. *)
type pending_class = { key : int array; mutable members : int list }

let rec tokens_equal key buf i len =
  i >= len || (key.(i) = buf.(i) && tokens_equal key buf (i + 1) len)

(* [key] equals the first [len] tokens of [buf]. *)
let key_matches key buf len = Array.length key = len && tokens_equal key buf 0 len

let rec find_class buf len = function
  | [] -> None
  | c :: rest -> if key_matches c.key buf len then Some c else find_class buf len rest

let schedule_classes t ~schedules ~sender ~receiver =
  let sa = solo_accesses t ~pid:t.env.Env.sender_pid sender in
  let ra = solo_accesses t ~pid:t.env.Env.receiver_pid receiver in
  let conflict = Hashtbl.create 16 in
  let mark tbl (addr, w) =
    let r, wr = Option.value ~default:(false, false) (Hashtbl.find_opt tbl addr) in
    Hashtbl.replace tbl addr (r || not w, wr || w)
  in
  let sides = Hashtbl.create 16 and rsides = Hashtbl.create 16 in
  Array.iter (mark sides) sa;
  Array.iter (mark rsides) ra;
  Hashtbl.iter
    (fun addr (sr, sw) ->
      match Hashtbl.find_opt rsides addr with
      | Some (rr, rw) when (sw && (rr || rw)) || (rw && (sr || sw)) ->
        Hashtbl.replace conflict addr ()
      | _ -> ())
    sides;
  (* Each access's key token, computed once per case: -1 off the
     conflict addresses. *)
  let token task (addr, w) =
    if Hashtbl.mem conflict addr then (addr * 4) + (task * 2) + Bool.to_int w
    else -1
  in
  let tokens = [| Array.map (token 0) sa; Array.map (token 1) ra |] in
  let counts = [| Array.length sa; Array.length ra |] in
  (* A schedule's key is built into one reused buffer and hashed as it
     grows; nothing is allocated per seed except a new class's key. *)
  let buf = Array.make (Array.length sa + Array.length ra) 0 in
  let len = ref 0 and hash = ref Fnv.init in
  let push task i =
    let tok = tokens.(task).(i) in
    if tok >= 0 then begin
      buf.(!len) <- tok;
      incr len;
      hash := Fnv.int !hash tok
    end
  in
  let fill schedule =
    len := 0;
    hash := Fnv.init;
    Sched.iter_order schedule counts push
  in
  fill Sched.Sequential;
  let seq_key = Array.sub buf 0 !len in
  (* Classes are found by hash and confirmed by comparing keys exactly:
     a hash match alone could merge two distinct classes. *)
  let by_hash = Hashtbl.create 64 in
  let order = ref [] in
  for s = 0 to schedules - 1 do
    fill (Sched.Seeded s);
    let bucket = Option.value ~default:[] (Hashtbl.find_opt by_hash !hash) in
    match find_class buf !len bucket with
    | Some c -> c.members <- s :: c.members
    | None ->
      let c = { key = Array.sub buf 0 !len; members = [ s ] } in
      Hashtbl.replace by_hash !hash (c :: bucket);
      order := c :: !order
  done;
  List.rev_map
    (fun c ->
      { cls_seeds = List.rev c.members;
        cls_sequential = key_matches c.key seq_key (Array.length seq_key) })
    !order

(* The receiver's solo trace from the pristine snapshot at the reference
   clock base — execution B, and the mask's reference run. Memoized per
   receiver program unless disabled or the fault plane is armed. *)
let baseline_trace t receiver =
  if not (baseline_cacheable t) then
    Decode.decode_trace (exec_receiver t ~base:t.env.Env.base0 receiver)
  else begin
    let key = Program.hash receiver in
    match Lru.find t.baseline_cache key with
    | Some (_, trace) ->
      Metrics.inc t.c_bhits;
      trace
    | None ->
      Metrics.inc t.c_bmisses;
      let results = exec_receiver t ~base:t.env.Env.base0 receiver in
      let trace = Decode.decode_trace results in
      Lru.add t.baseline_cache key (results, trace);
      trace
  end

(* The non-determinism mask of [receiver]: its solo trace with det flags
   cleared wherever re-executions with shifted clock bases disagree. *)
let nondet_mask t receiver =
  let key = Program.hash receiver in
  match Lru.find t.mask_cache key with
  | Some mask ->
    Metrics.inc t.c_hits;
    mask
  | None ->
    Metrics.inc t.c_misses;
    let base = t.env.Env.base0 in
    let reference = baseline_trace t receiver in
    let alternatives =
      List.init t.reruns (fun k ->
          run_receiver t ~base:(base + ((k + 1) * t.rerun_delta)) receiver)
    in
    let mask = Nondet.mark reference alternatives in
    Lru.add t.mask_cache key mask;
    mask

(* Thin reads over the registry counters — per-instance deltas. *)
let mask_cache_stats t =
  ( Metrics.counter_value t.c_hits - t.hits0,
    Metrics.counter_value t.c_misses - t.misses0,
    Lru.length t.mask_cache )

let mask_evictions t = Metrics.counter_value t.c_evictions - t.evictions0

let baseline_cache_stats t =
  ( Metrics.counter_value t.c_bhits - t.bhits0,
    Metrics.counter_value t.c_bmisses - t.bmisses0,
    Lru.length t.baseline_cache )

type outcome = {
  trace_a : Ast.t;                  (* receiver trace, sender ran first *)
  trace_b : Ast.t;                  (* receiver trace, solo *)
  raw_diffs : Compare.diff list;    (* before non-determinism masking *)
  masked_diffs : Compare.diff list; (* after masking *)
  interfered : int list;            (* receiver call indices, after masking *)
}

(* Execute one test case. *)
let execute t ~sender ~receiver =
  let base = t.env.Env.base0 in
  let trace_a = run_pair t ~base sender receiver in
  let trace_b = baseline_trace t receiver in
  let raw_diffs = Compare.diff_trees trace_a trace_b in
  if raw_diffs = [] then
    { trace_a; trace_b; raw_diffs; masked_diffs = []; interfered = [] }
  else begin
    let mask = nondet_mask t receiver in
    let masked_a = Nondet.apply_mask mask trace_a in
    let masked_b = Nondet.apply_mask mask trace_b in
    let masked_diffs = Compare.diff_trees masked_a masked_b in
    let interfered = Compare.interfered_of_diffs masked_diffs in
    { trace_a; trace_b; raw_diffs; masked_diffs; interfered }
  end

(* A divergence only an interleaved schedule exposes: the masked diffs
   of one schedule class representative against the receiver's solo
   trace, fingerprinted schedule-independently so the same root cause
   found by several classes collapses into one finding carrying every
   reproducing seed. *)
type concurrent = {
  cc_seeds : int list;              (* reproducing schedule seeds, ascending *)
  cc_fingerprint : int;             (* Compare.fingerprint_diffs of cc_diffs *)
  cc_diffs : Compare.diff list;     (* masked diffs vs the solo trace *)
  cc_interfered : int list;         (* receiver call indices, after masking *)
  cc_trace : Ast.t;                 (* the interleaved receiver trace *)
}

type search = {
  sr_schedules : int;               (* candidate seeds examined *)
  sr_classes : int;                 (* POR equivalence classes among them *)
  sr_executed : int;                (* class representatives actually run *)
  sr_pruned : int;                  (* candidates that never executed *)
  sr_skipped : int;                 (* representatives lost to crash/hang *)
  sr_findings : concurrent list;
}

let empty_search =
  { sr_schedules = 0; sr_classes = 0; sr_executed = 0; sr_pruned = 0;
    sr_skipped = 0; sr_findings = [] }

(* Schedule search for one test case, given its sequential outcome.
   Every non-sequential class representative executes once; divergences
   whose fingerprint equals the sequential outcome's are the same root
   cause the sequential phase already reported and are dropped, so the
   findings are precisely the concurrent-only interference. A
   representative that panics or hangs is counted and skipped — a
   schedule-dependent crash is interesting but is not a functional
   interference report, and must not quarantine a test case that runs
   fine sequentially. *)
let search_schedules t ~schedules ~sender ~receiver (seq : outcome) =
  if schedules <= 1 then empty_search
  else
    match schedule_classes t ~schedules ~sender ~receiver with
    | exception (Fault.Kernel_panic _ | Fault.Fuel_exhausted) ->
      (* solo access capture died under an armed fault plane *)
      { empty_search with sr_schedules = schedules; sr_skipped = 1 }
    | classes ->
      let seq_fp = Compare.fingerprint_diffs seq.masked_diffs in
      let executed = ref 0 and skipped = ref 0 in
      let findings = ref [] in      (* (fingerprint, concurrent), first-seen *)
      List.iter
        (fun cls ->
          if not cls.cls_sequential then begin
            incr executed;
            match
              run_interleaved t
                ~schedule:(Sched.Seeded (List.hd cls.cls_seeds))
                ~base:t.env.Env.base0 sender receiver
            with
            | exception (Fault.Kernel_panic _ | Fault.Fuel_exhausted) ->
              incr skipped
            | trace_i ->
              let raw = Compare.diff_trees trace_i seq.trace_b in
              if raw <> [] then begin
                let mask = nondet_mask t receiver in
                let masked_i = Nondet.apply_mask mask trace_i in
                let masked_b = Nondet.apply_mask mask seq.trace_b in
                let diffs = Compare.diff_trees masked_i masked_b in
                if diffs <> [] then begin
                  let fp = Compare.fingerprint_diffs diffs in
                  if fp <> seq_fp then
                    match List.assoc_opt fp !findings with
                    | Some c ->
                      findings :=
                        (fp, { c with cc_seeds = c.cc_seeds @ cls.cls_seeds })
                        :: List.remove_assoc fp !findings
                    | None ->
                      findings :=
                        ( fp,
                          { cc_seeds = cls.cls_seeds; cc_fingerprint = fp;
                            cc_diffs = diffs;
                            cc_interfered = Compare.interfered_of_diffs diffs;
                            cc_trace = trace_i } )
                        :: !findings
                end
              end
          end)
        classes;
      let sr_findings =
        List.rev_map
          (fun (_, c) ->
            { c with cc_seeds = List.sort_uniq Int.compare c.cc_seeds })
          !findings
      in
      { sr_schedules = schedules;
        sr_classes = List.length classes;
        sr_executed = !executed;
        sr_pruned = schedules - !executed;
        sr_skipped = !skipped;
        sr_findings }

(* Failure-aware execution: a crashed or hung kernel no longer takes the
   whole campaign down; the caller (normally Exec.Supervisor) decides
   whether to retry, reboot, or quarantine. *)
type status =
  | Completed of outcome
  | Crashed of Fault.panic_info
  | Hung

let try_execute t ~sender ~receiver =
  match execute t ~sender ~receiver with
  | outcome -> Completed outcome
  | exception Fault.Kernel_panic info -> Crashed info
  | exception Fault.Fuel_exhausted -> Hung

(* Re-test with a modified sender and report the interfered receiver
   indices — the TestFuncI primitive of Algorithm 2. *)
let test_interference t ~sender ~receiver =
  let outcome = execute t ~sender ~receiver in
  outcome.interfered

(* Bounds-based execution (the paper's section 7 extension for the time
   namespace): learn per-leaf value bounds from receiver-only runs at
   different clock bases, then flag the sender-preceded trace's values
   that fall outside them. Detects interference on resources that are
   non-deterministic by nature, which the masking pipeline must skip. *)
let bounds_of t receiver =
  let base = t.env.Env.base0 in
  let reference = baseline_trace t receiver in
  let alternatives =
    List.init t.reruns (fun k ->
        run_receiver t ~base:(base + ((k + 1) * t.rerun_delta)) receiver)
  in
  Kit_trace.Bounds.learn reference alternatives

let execute_bounds t ~sender ~receiver =
  let bounds = bounds_of t receiver in
  let trace_a = run_pair t ~base:t.env.Env.base0 sender receiver in
  Kit_trace.Bounds.check bounds trace_a
