(* The deterministic interleaving scheduler: sequential-schedule
   equivalence with the plain runner, schedule determinism across
   domains and processes, POR soundness, and the end-to-end guarantee
   that schedule search finds every seeded race-window bug no
   sequential run can expose. *)

module K = Kit_kernel
module Sched = Kit_kernel.Sched
module Bugs = Kit_kernel.Bugs
module Program = Kit_abi.Program
module Syzlang = Kit_abi.Syzlang
module Corpus = Kit_abi.Corpus
module Consts = Kit_abi.Consts
module Spec = Kit_spec.Spec
module Testcase = Kit_gen.Testcase
module Env = Kit_exec.Env
module Runner = Kit_exec.Runner
module Ast = Kit_trace.Ast
module Compare = Kit_trace.Compare
module Filter = Kit_detect.Filter
module Report = Kit_detect.Report
module Campaign = Kit_core.Campaign
module Oracle = Kit_core.Oracle
module Pool = Kit_serve.Pool

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let p = Syzlang.parse

(* A kernel carrying only the seeded race-window bugs: the cleanest
   demonstration that they are sequentially invisible — every
   sequential execution is silent, only schedule search speaks. *)
let race_only_config () =
  K.Config.make ~bugs:(Bugs.of_list Bugs.race_bugs) "5.13-rw"

(* Hand-built reproducer pairs, one per seeded race-window bug. *)
let rw1_pair =
  ( p "r0 = socket(1)\nalloc_protomem(r0, 256)",
    p "r0 = open(\"/proc/net/sockstat\")\nr1 = read(r0)" )

let rw2_pair =
  ( p "r0 = socket(1)\nr1 = get_cookie(r0)",
    p "r0 = socket(1)\nr1 = get_cookie(r0)" )

let rw3_pair =
  ( p "r0 = open(\"/proc/uptime\")\nr1 = read(r0)",
    p "r0 = open(\"/proc/net/sockstat\")\nr1 = read(r0)" )

let rw_pairs =
  [ (Bugs.RW1_protomem_inflight, rw1_pair);
    (Bugs.RW2_cookie_window, rw2_pair);
    (Bugs.RW3_seqfile_busy, rw3_pair) ]

let search_budget = 64

(* --- the decision function ------------------------------------------------ *)

let test_mix_pure () =
  for seed = 0 to 8 do
    for step = 0 to 32 do
      let a = Sched.mix ~seed ~step in
      check_bool "non-negative" true (a >= 0);
      check_int "stable across calls" a (Sched.mix ~seed ~step)
    done
  done

let test_choose_sequential () =
  check_int "lowest runnable" 0
    (Sched.choose Sched.Sequential ~step:5 ~runnable:[ 0; 1 ]);
  check_int "singleton" 1 (Sched.choose Sched.Sequential ~step:0 ~runnable:[ 1 ]);
  (* seeded choice is a member of the runnable set *)
  for seed = 0 to 5 do
    for step = 0 to 10 do
      let c = Sched.choose (Sched.Seeded seed) ~step ~runnable:[ 0; 1 ] in
      check_bool "member" true (c = 0 || c = 1)
    done
  done

let test_simulate_shape () =
  let counts = [| 3; 2 |] in
  check
    Alcotest.(list (pair int int))
    "sequential merge is sender-then-receiver"
    [ (0, 0); (0, 1); (0, 2); (1, 0); (1, 1) ]
    (Sched.simulate Sched.Sequential counts);
  (* every seeded merge is a per-task-order-preserving permutation *)
  for seed = 0 to 15 do
    let merged = Sched.simulate (Sched.Seeded seed) counts in
    check_int "length" 5 (List.length merged);
    let last = [| -1; -1 |] in
    List.iter
      (fun (task, i) ->
        check_bool "task id valid" true (task = 0 || task = 1);
        check_bool "per-task order preserved" true (i = last.(task) + 1);
        last.(task) <- i)
      merged;
    check
      Alcotest.(list (pair int int))
      "deterministic" merged
      (Sched.simulate (Sched.Seeded seed) counts)
  done

(* --- sequential schedule ≡ plain runner ----------------------------------- *)

let test_sequential_equals_run_pair () =
  List.iter
    (fun cfg ->
      let env = Env.create cfg in
      let runner = Runner.create env in
      List.iter
        (fun (_, (sender, receiver)) ->
          let base = env.Env.base0 in
          let plain = Runner.run_pair runner ~base sender receiver in
          let inter =
            Runner.run_interleaved runner ~schedule:Sched.Sequential ~base
              sender receiver
          in
          check_bool "byte-identical trace" true (Ast.equal plain inter))
        rw_pairs)
    [ K.Config.v5_13 (); K.Config.v5_13_rw (); race_only_config () ]

(* --- sequentially invisible, concurrently exposed ------------------------- *)

let test_race_bugs_sequentially_invisible () =
  let runner = Runner.create (Env.create (race_only_config ())) in
  List.iter
    (fun (bug, (sender, receiver)) ->
      let outcome = Runner.execute runner ~sender ~receiver in
      check_int
        (Printf.sprintf "%s silent sequentially" (Bugs.to_string bug))
        0
        (List.length outcome.Runner.masked_diffs))
    rw_pairs

let classify testcase ~sender ~receiver ~trace_b c =
  Filter.classify_concurrent Spec.default ~testcase ~sender ~receiver ~trace_b c

let test_search_finds_each_race_bug () =
  let runner = Runner.create (Env.create (race_only_config ())) in
  List.iter
    (fun (bug, (sender, receiver)) ->
      let outcome = Runner.execute runner ~sender ~receiver in
      let search =
        Runner.search_schedules runner ~schedules:search_budget ~sender
          ~receiver outcome
      in
      let name = Bugs.to_string bug in
      check_int (name ^ ": candidates") search_budget search.Runner.sr_schedules;
      check_int (name ^ ": executed + pruned = candidates") search_budget
        (search.Runner.sr_executed + search.Runner.sr_pruned);
      check_bool (name ^ ": executed bounded by classes") true
        (search.Runner.sr_executed <= search.Runner.sr_classes);
      check_bool (name ^ ": divergence found") true
        (search.Runner.sr_findings <> []);
      let tc = { Testcase.sender = 0; receiver = 1; flow = None } in
      let reports =
        List.filter_map
          (classify tc ~sender ~receiver ~trace_b:outcome.Runner.trace_b)
          search.Runner.sr_findings
      in
      check_bool (name ^ ": report survives the resource filter") true
        (reports <> []);
      check_bool (name ^ ": attributed to the seeded bug") true
        (List.exists
           (fun r ->
             match Oracle.attribute_concurrent r with
             | Oracle.Bug b -> Bugs.equal b bug
             | Oracle.False_positive _ | Oracle.Under_investigation -> false)
           reports))
    rw_pairs

let test_findings_deduplicated () =
  let runner = Runner.create (Env.create (race_only_config ())) in
  List.iter
    (fun (_, (sender, receiver)) ->
      let outcome = Runner.execute runner ~sender ~receiver in
      let search =
        Runner.search_schedules runner ~schedules:search_budget ~sender
          ~receiver outcome
      in
      let fps =
        List.map (fun c -> c.Runner.cc_fingerprint) search.Runner.sr_findings
      in
      check_int "fingerprints unique" (List.length fps)
        (List.length (List.sort_uniq compare fps));
      List.iter
        (fun c ->
          check_bool "non-negative fingerprint" true (c.Runner.cc_fingerprint >= 0);
          check_bool "seeds ascending" true
            (c.Runner.cc_seeds = List.sort compare c.Runner.cc_seeds);
          check_int "fingerprint matches diffs" c.Runner.cc_fingerprint
            (Compare.fingerprint_diffs c.Runner.cc_diffs))
        search.Runner.sr_findings)
    rw_pairs

(* --- qcheck: random programs from the corpus generator -------------------- *)

let gen_program =
  QCheck.Gen.(
    map
      (fun (seed, idx) ->
        let corpus = Corpus.generate ~seed ~size:8 in
        List.nth corpus (idx mod List.length corpus))
      (pair small_nat small_nat))

let arbitrary_program = QCheck.make ~print:Syzlang.print gen_program
let arbitrary_pair = QCheck.pair arbitrary_program arbitrary_program

let rw_exec =
  lazy
    (let env = Env.create (K.Config.v5_13_rw ()) in
     (env, Runner.create env))

let prop_sequential_schedule_equals_run_pair =
  QCheck.Test.make
    ~name:"interleaved Sequential schedule = run_pair, byte-identical"
    ~count:50 arbitrary_pair (fun (sender, receiver) ->
      let env, runner = Lazy.force rw_exec in
      let base = env.Env.base0 in
      let plain = Runner.run_pair runner ~base sender receiver in
      let inter =
        Runner.run_interleaved runner ~schedule:Sched.Sequential ~base sender
          receiver
      in
      Ast.equal plain inter)

let search_fp (s : Runner.search) =
  ( s.Runner.sr_schedules, s.Runner.sr_classes, s.Runner.sr_executed,
    s.Runner.sr_pruned, s.Runner.sr_skipped,
    List.map
      (fun c -> (c.Runner.cc_seeds, c.Runner.cc_fingerprint, c.Runner.cc_interfered))
      s.Runner.sr_findings )

let prop_search_deterministic_across_runners =
  (* Two independent runner instances — fresh caches, fresh kernels —
     agree decision-for-decision: seeds are portable identifiers. *)
  QCheck.Test.make ~name:"schedule search deterministic across runners"
    ~count:20 arbitrary_pair (fun (sender, receiver) ->
      let search_with () =
        let runner = Runner.create (Env.create (K.Config.v5_13_rw ())) in
        let outcome = Runner.execute runner ~sender ~receiver in
        Runner.search_schedules runner ~schedules:12 ~sender ~receiver outcome
      in
      search_fp (search_with ()) = search_fp (search_with ()))

let prop_por_soundness =
  (* Every member of a POR class executes identically to the class
     representative, and members of the sequential class reproduce the
     plain sequential run — pruning never hides a distinct behaviour. *)
  QCheck.Test.make ~name:"POR pruning is sound: class members coincide"
    ~count:25 arbitrary_pair (fun (sender, receiver) ->
      let env, runner = Lazy.force rw_exec in
      let base = env.Env.base0 in
      let classes =
        Runner.schedule_classes runner ~schedules:10 ~sender ~receiver
      in
      let trace_of seed =
        Runner.run_interleaved runner ~schedule:(Sched.Seeded seed) ~base
          sender receiver
      in
      let sequential = Runner.run_pair runner ~base sender receiver in
      List.for_all
        (fun cls ->
          match cls.Runner.cls_seeds with
          | [] -> false
          | rep :: rest ->
            let rep_trace = trace_of rep in
            List.for_all (fun s -> Ast.equal rep_trace (trace_of s)) rest
            && (not cls.Runner.cls_sequential
               || Ast.equal rep_trace sequential))
        classes)

(* --- equivalence with the list-based reference code ----------------------- *)

(* Test-local copies of the scheduler driver, the simulator and the POR
   keying as they were before decisions moved into the yield hook and
   class keys into a reused, hashed buffer. The properties below pin the
   current code to them: same decisions, same traces, same partition. *)
module Reference = struct
  open Effect
  open Effect.Deep

  type _ Effect.t += Yield : unit Effect.t

  let choose schedule ~step ~runnable =
    match runnable with
    | [] -> invalid_arg "choose"
    | [ i ] -> i
    | first :: _ -> (
      match schedule with
      | Sched.Sequential -> first
      | Sched.Seeded seed ->
        List.nth runnable (Sched.mix ~seed ~step mod List.length runnable))

  type task =
    | Not_started of (unit -> unit)
    | Ready of (unit, unit) continuation
    | Done

  (* Every yield suspends the task; the loop then chooses among all
     unfinished tasks. *)
  let run schedule ctx thunks =
    let tasks = Array.of_list (List.map (fun f -> Not_started f) thunks) in
    let n = Array.length tasks in
    let current = ref 0 and steps = ref 0 in
    let runnable () =
      List.filter
        (fun i -> match tasks.(i) with Done -> false | _ -> true)
        (List.init n Fun.id)
    in
    let handler =
      { retc = (fun () -> tasks.(!current) <- Done);
        exnc = (fun e -> tasks.(!current) <- Done; raise e);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Yield ->
              Some (fun (k : (a, unit) continuation) -> tasks.(!current) <- Ready k)
            | _ -> None) }
    in
    let abort e =
      Array.iteri
        (fun i st ->
          match st with
          | Ready k -> (
            current := i;
            try discontinue k Sched.Aborted with Sched.Aborted -> ())
          | Not_started _ -> tasks.(i) <- Done
          | Done -> ())
        tasks;
      raise e
    in
    K.Ctx.with_yield ctx (fun () -> perform Yield) (fun () ->
        let rec loop () =
          match runnable () with
          | [] -> ()
          | rs ->
            let i = choose schedule ~step:!steps ~runnable:rs in
            incr steps;
            current := i;
            (match tasks.(i) with
            | Not_started f -> ( try match_with f () handler with e -> abort e)
            | Ready k -> ( try continue k () with e -> abort e)
            | Done -> assert false);
            loop ()
        in
        loop ());
    !steps

  let simulate schedule counts =
    let n = Array.length counts in
    let picks = Array.make n 0 and steps = ref 0 and order = ref [] in
    let rec loop () =
      match List.filter (fun i -> picks.(i) <= counts.(i)) (List.init n Fun.id) with
      | [] -> ()
      | rs ->
        let i = choose schedule ~step:!steps ~runnable:rs in
        incr steps;
        if picks.(i) > 0 then order := (i, picks.(i) - 1) :: !order;
        picks.(i) <- picks.(i) + 1;
        loop ()
    in
    loop ();
    List.rev !order

  (* One [int list] key per seed over the whole simulated order. *)
  let schedule_classes runner (env : Env.t) ~schedules ~sender ~receiver =
    let sa = Runner.solo_accesses runner ~pid:env.Env.sender_pid sender in
    let ra = Runner.solo_accesses runner ~pid:env.Env.receiver_pid receiver in
    let touches accesses addr =
      Array.fold_left
        (fun (r, w) (a, wr) ->
          if a = addr then (r || not wr, w || wr) else (r, w))
        (false, false) accesses
    in
    let conflict addr =
      let sr, sw = touches sa addr and rr, rw = touches ra addr in
      (sw && (rr || rw)) || (rw && (sr || sw))
    in
    let counts = [| Array.length sa; Array.length ra |] in
    let key_of schedule =
      List.filter_map
        (fun (task, i) ->
          let addr, w = if task = 0 then sa.(i) else ra.(i) in
          if conflict addr then Some ((addr * 4) + (task * 2) + Bool.to_int w)
          else None)
        (simulate schedule counts)
    in
    let seq_key = key_of Sched.Sequential in
    let classes = ref [] in             (* (key, seeds newest first), newest first *)
    for s = 0 to schedules - 1 do
      let k = key_of (Sched.Seeded s) in
      match List.assoc_opt k !classes with
      | Some seeds -> classes := (k, s :: seeds) :: List.remove_assoc k !classes
      | None -> classes := (k, [ s ]) :: !classes
    done;
    List.sort (fun (_, a) (_, b) -> compare (List.rev a) (List.rev b)) !classes
    |> List.map (fun (k, seeds) -> (List.rev seeds, k = seq_key))
end

let gen_case =
  QCheck.Gen.(
    oneof
      [ pair gen_program gen_program; oneofl (List.map snd rw_pairs) ])

let arbitrary_case =
  QCheck.make
    ~print:(fun (s, r) -> Syzlang.print s ^ "\n---\n" ^ Syzlang.print r)
    gen_case

(* Sender and receiver as scheduled tasks under [drive]; the decision
   count and the receiver's raw results. *)
let interleave (env : Env.t) drive sender receiver =
  let k = env.Env.kernel in
  Env.reset env ~base:env.Env.base0;
  let results = ref [] in
  let decisions =
    drive k.K.State.ctx
      [ (fun () -> ignore (K.Interp.run k ~pid:env.Env.sender_pid sender));
        (fun () -> results := K.Interp.run k ~pid:env.Env.receiver_pid receiver) ]
  in
  (decisions, !results)

let same_tree a b = Ast.equal a b && Ast.to_string a = Ast.to_string b

let prop_run_equals_reference_driver =
  QCheck.Test.make
    ~name:"Sched.run = reference driver: decisions and receiver trace"
    ~count:40
    QCheck.(pair arbitrary_case (option small_nat))
    (fun ((sender, receiver), seed) ->
      let env, _ = Lazy.force rw_exec in
      let schedule =
        match seed with None -> Sched.Sequential | Some s -> Sched.Seeded s
      in
      let d, r = interleave env (Sched.run ~schedule) sender receiver in
      let d', r' = interleave env (Reference.run schedule) sender receiver in
      d = d'
      && same_tree (Kit_trace.Decode.decode_trace r)
           (Kit_trace.Decode.decode_trace r'))

let prop_simulate_equals_reference =
  QCheck.Test.make ~name:"Sched.simulate = reference simulator" ~count:200
    QCheck.(triple (int_bound 40) (int_bound 40) small_nat)
    (fun (a, b, seed) ->
      let counts = [| a; b |] in
      Sched.simulate (Sched.Seeded seed) counts
      = Reference.simulate (Sched.Seeded seed) counts
      && Sched.simulate Sched.Sequential counts
         = Reference.simulate Sched.Sequential counts)

let prop_classes_equal_reference =
  QCheck.Test.make
    ~name:"schedule_classes = list-keyed reference: same partition"
    ~count:40 arbitrary_case (fun (sender, receiver) ->
      let env, runner = Lazy.force rw_exec in
      let classes =
        Runner.schedule_classes runner ~schedules:32 ~sender ~receiver
      in
      List.map (fun c -> (c.Runner.cls_seeds, c.Runner.cls_sequential)) classes
      = Reference.schedule_classes runner env ~schedules:32 ~sender ~receiver)

let prop_decode_against_equals_decode =
  (* Against the receiver's own solo results (most nodes reused) and
     against the sender's (mostly mismatched), for sequential and
     interleaved runs alike. *)
  QCheck.Test.make ~name:"decode_trace_against = decode_trace" ~count:40
    QCheck.(pair arbitrary_case small_nat)
    (fun ((sender, receiver), seed) ->
      let env, _ = Lazy.force rw_exec in
      let k = env.Env.kernel in
      let solo pid prog =
        Env.reset env ~base:env.Env.base0;
        K.Interp.run k ~pid prog
      in
      let sequential =
        Env.reset env ~base:env.Env.base0;
        ignore (K.Interp.run k ~pid:env.Env.sender_pid sender);
        K.Interp.run k ~pid:env.Env.receiver_pid receiver
      in
      let _, interleaved =
        interleave env (Sched.run ~schedule:(Sched.Seeded seed)) sender receiver
      in
      let baselines =
        [ solo env.Env.receiver_pid receiver; solo env.Env.sender_pid sender ]
      in
      List.for_all
        (fun base ->
          let base_trace = Kit_trace.Decode.decode_trace base in
          List.for_all
            (fun results ->
              same_tree
                (Kit_trace.Decode.decode_trace_against base base_trace results)
                (Kit_trace.Decode.decode_trace results))
            [ sequential; interleaved; base ])
        baselines)

(* --- campaign integration ------------------------------------------------- *)

let fp x = Digest.string (Marshal.to_string x [ Marshal.No_sharing ])

let funnel_fp (f : Filter.funnel) =
  ( f.Filter.executed, f.Filter.initial, f.Filter.after_nondet,
    f.Filter.after_resource )

let concurrent_fp (c : Campaign.t) =
  List.map
    (fun (r : Report.t) ->
      ( fp r.Report.testcase, r.Report.interfered, r.Report.origin,
        fp r.Report.diffs ))
    c.Campaign.concurrent

let sched_fp (s : Campaign.sched_stats) =
  ( s.Campaign.sched_candidates, s.Campaign.sched_classes,
    s.Campaign.sched_executed, s.Campaign.sched_pruned,
    s.Campaign.sched_skipped )

let test_campaign_sequential_results_unchanged () =
  (* Turning schedule search on must not perturb the sequential
     pipeline: reports, funnel and quarantine are byte-identical with
     and without it, for multiple seeds. *)
  List.iter
    (fun seed ->
      let base_opts =
        { Campaign.default_options with
          Campaign.corpus_size = 48;
          seed;
          diagnose = false }
      in
      let plain = Campaign.run base_opts in
      let searched =
        Campaign.run { base_opts with Campaign.schedules = 6 }
      in
      check Alcotest.string "reports identical" (fp plain.Campaign.reports)
        (fp searched.Campaign.reports);
      check Alcotest.string "funnel identical"
        (fp (funnel_fp plain.Campaign.funnel))
        (fp (funnel_fp searched.Campaign.funnel));
      check Alcotest.string "quarantine identical"
        (fp plain.Campaign.quarantined)
        (fp searched.Campaign.quarantined);
      check
        Alcotest.(list int)
        "sequential-only campaign has zero sched stats"
        [ 0; 0; 0; 0; 0 ]
        (let a, b, c, d, e = sched_fp plain.Campaign.sched in
         [ a; b; c; d; e ]);
      check_int "no concurrent reports without search" 0
        (List.length plain.Campaign.concurrent);
      check_bool "searched campaign examined schedules" true
        ((fun (a, _, _, _, _) -> a) (sched_fp searched.Campaign.sched) > 0))
    [ 7; 11 ]

let rw_campaign_options =
  { Campaign.default_options with
    Campaign.config = K.Config.v5_13_rw ();
    corpus_size = 48;
    seed = 7;
    diagnose = false;
    schedules = 8 }

let rw_campaign = lazy (Campaign.run rw_campaign_options)

let test_campaign_deterministic_across_domains () =
  (* The same campaign under --domains 1..4: concurrent findings and
     schedule-search totals are structurally identical — seeds name the
     same interleavings wherever the case executes. *)
  let reference = Lazy.force rw_campaign in
  List.iter
    (fun domains ->
      let c =
        Campaign.run { rw_campaign_options with Campaign.domains }
      in
      check Alcotest.string
        (Printf.sprintf "concurrent reports equal at domains=%d" domains)
        (fp (concurrent_fp reference))
        (fp (concurrent_fp c));
      check Alcotest.string
        (Printf.sprintf "sched stats equal at domains=%d" domains)
        (fp (sched_fp reference.Campaign.sched))
        (fp (sched_fp c.Campaign.sched)))
    [ 2; 3; 4 ]

let test_campaign_deterministic_across_procs () =
  (* The pool path (separate worker processes) folds the same
     schedule-search results as the in-process campaign. *)
  let reference = Lazy.force rw_campaign in
  let outcome =
    Pool.execute
      { Pool.default_config with Pool.procs = 2 }
      rw_campaign_options reference.Campaign.corpus
      reference.Campaign.generation
  in
  let concurrent =
    List.concat_map (fun r -> r.Campaign.cr_concurrent) outcome.Pool.results
  in
  let sched = Campaign.sched_create () in
  List.iter (fun r -> Campaign.add_sched sched r.Campaign.cr_sched)
    outcome.Pool.results;
  let fps_of list =
    List.sort compare
      (List.map
         (fun (r : Report.t) -> (fp r.Report.testcase, r.Report.origin))
         list)
  in
  check Alcotest.string "concurrent findings equal under procs=2"
    (fp (fps_of reference.Campaign.concurrent))
    (fp (fps_of concurrent));
  let a, b, c, d, e = sched_fp sched in
  let a', b', c', d', e' = sched_fp reference.Campaign.sched in
  check
    Alcotest.(list int)
    "sched totals equal under procs=2"
    [ a'; b'; c'; d'; e' ] [ a; b; c; d; e ]

let test_campaign_finds_all_race_bugs () =
  (* The acceptance gate, in-process: a campaign over the curated
     reproducer pairs with a fixed schedule budget witnesses every
     seeded race-window bug, with a non-trivial POR prune ratio. *)
  let opts =
    { Campaign.default_options with
      Campaign.config = K.Config.v5_13_rw ();
      corpus_size = 96;
      seed = 3;
      diagnose = false;
      schedules = 128 }
  in
  let c = Campaign.run opts in
  let found = Oracle.race_bugs_found c.Campaign.concurrent in
  List.iter
    (fun bug ->
      check_bool
        (Printf.sprintf "campaign witnesses %s" (Bugs.to_string bug))
        true
        (List.exists (Bugs.equal bug) found))
    Bugs.race_bugs;
  check_bool "POR pruned schedules" true
    (c.Campaign.sched.Campaign.sched_pruned > 0);
  check_bool "search ran on completed cases" true
    (c.Campaign.sched.Campaign.sched_candidates > 0)

let suite =
  [
    Alcotest.test_case "mix is pure and non-negative" `Quick test_mix_pure;
    Alcotest.test_case "choose: Sequential picks lowest" `Quick
      test_choose_sequential;
    Alcotest.test_case "simulate: order-preserving merge" `Quick
      test_simulate_shape;
    Alcotest.test_case "Sequential schedule = run_pair on reproducers" `Quick
      test_sequential_equals_run_pair;
    Alcotest.test_case "race-window bugs invisible sequentially" `Quick
      test_race_bugs_sequentially_invisible;
    Alcotest.test_case "search finds each seeded race-window bug" `Quick
      test_search_finds_each_race_bug;
    Alcotest.test_case "findings deduplicated by fingerprint" `Quick
      test_findings_deduplicated;
    QCheck_alcotest.to_alcotest prop_sequential_schedule_equals_run_pair;
    QCheck_alcotest.to_alcotest prop_search_deterministic_across_runners;
    QCheck_alcotest.to_alcotest prop_por_soundness;
    QCheck_alcotest.to_alcotest prop_run_equals_reference_driver;
    QCheck_alcotest.to_alcotest prop_simulate_equals_reference;
    QCheck_alcotest.to_alcotest prop_classes_equal_reference;
    QCheck_alcotest.to_alcotest prop_decode_against_equals_decode;
    Alcotest.test_case "schedule search leaves sequential results intact"
      `Quick test_campaign_sequential_results_unchanged;
    Alcotest.test_case "campaign deterministic across domains" `Quick
      test_campaign_deterministic_across_domains;
    Alcotest.test_case "campaign deterministic across procs" `Quick
      test_campaign_deterministic_across_procs;
    Alcotest.test_case "campaign finds all race-window bugs" `Slow
      test_campaign_finds_all_race_bugs;
  ]
