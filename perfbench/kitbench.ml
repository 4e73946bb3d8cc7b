(* kitbench: one iteration of a perfbench workload, in a fresh process.

     kitbench run WORKLOAD SEED [KIT SOCKET PROCS]
       runs the workload untraced and prints one JSON line of end-to-end
       measurements (serve-2t spawns [KIT serve] and talks to it over
       SOCKET);
     kitbench trace WORKLOAD SEED [PROCS]
       drives the layers' public functions from this file, with a span
       around each call, and prints one JSON line of per-layer metrics.

   perfbench/run.py starts these processes, aggregates them and prints
   the benchmark result. A fresh process per iteration matters: intern
   pools and runner caches persist within a process, and every [kit]
   invocation pays for them again. *)

(* Pool workers re-execute this binary; they must branch off before
   anything else runs. *)
let () = Kit_serve.Pool.worker_entry ()

module Campaign = Kit_core.Campaign
module Oracle = Kit_core.Oracle
module Jobqueue = Kit_core.Jobqueue
module Proto = Kit_serve.Proto
module Sched = Kit_serve.Sched
module Tenant = Kit_serve.Tenant
module Pool = Kit_serve.Pool
module Wire = Kit_serve.Wire
module Cluster = Kit_gen.Cluster
module Dataflow = Kit_gen.Dataflow
module Testcase = Kit_gen.Testcase
module Corpus = Kit_abi.Corpus
module Supervisor = Kit_exec.Supervisor
module Runner = Kit_exec.Runner
module Env = Kit_exec.Env
module Filter = Kit_detect.Filter
module Diagnose = Kit_report.Diagnose
module Aggregate = Kit_report.Aggregate
module Interp = Kit_kernel.Interp
module KSched = Kit_kernel.Sched
module Heap = Kit_kernel.Heap
module State = Kit_kernel.State
module Config = Kit_kernel.Config
module Bugs = Kit_kernel.Bugs
module Decode = Kit_trace.Decode
module Compare = Kit_trace.Compare
module Nondet = Kit_trace.Nondet
module Obs = Kit_obs.Obs

let now = Unix.gettimeofday

(* Words allocated so far by this process: minor allocations plus direct
   major ones (promotions are already counted as minor words). *)
let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* -- JSON output ---------------------------------------------------------- *)

type json = Num of float | Str of string | Arr of json list

let rec json_to_string = function
  | Num f when not (Float.is_finite f) -> "0"
  | Num f when Float.is_integer f && Float.abs f < 1e15 -> Printf.sprintf "%.0f" f
  | Num f -> Printf.sprintf "%.17g" f
  | Str s -> Printf.sprintf "%S" s
  | Arr l -> "[" ^ String.concat ", " (List.map json_to_string l) ^ "]"

let print_obj fields =
  print_endline
    ("{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (json_to_string v))
           fields)
    ^ "}")

let num_i i = Num (float_of_int i)

(* -- workloads ------------------------------------------------------------ *)

type workload = Corpus_scale | Rand_exec | Race_search | Serve_2t

let workload_of_string = function
  | "corpus-scale" -> Corpus_scale
  | "rand-exec" -> Rand_exec
  | "race-search" -> Race_search
  | "serve-2t" -> Serve_2t
  | w -> failwith ("unknown workload: " ^ w)

(* The in-process campaigns. corpus-scale is dominated by profiling, the
   access map and clustering; rand-exec by sequential two-phase
   execution and diagnosis; race-search by interleaved execution and
   partial-order reduction. *)
let options_of w seed =
  let d = Campaign.default_options in
  match w with
  | Corpus_scale ->
    { d with Campaign.seed; corpus_size = 20_000; strategy = Cluster.Df_ia }
  | Rand_exec ->
    { d with Campaign.seed; corpus_size = 1_000; strategy = Cluster.Rand 60_000 }
  | Race_search ->
    { d with
      Campaign.config = Config.v5_13_rw ();
      seed; corpus_size = 96; strategy = Cluster.Df_ia; schedules = 128 }
  | Serve_2t -> invalid_arg "serve-2t is not an in-process campaign"

(* serve-2t: a large low-weight RAND tenant and a small high-weight
   DF-IA tenant, submitted together. *)
let serve_specs seed =
  let d = Proto.default_spec in
  [ { d with
      Proto.sp_name = "large"; sp_seed = seed; sp_corpus_size = 320;
      sp_strategy = Cluster.Rand 2_000; sp_weight = 1 };
    { d with
      Proto.sp_name = "small"; sp_seed = seed; sp_corpus_size = 320;
      sp_strategy = Cluster.Df_ia; sp_weight = 3 } ]

(* Output checks: a failed check fails the run. *)
type checks = { mutable attempted : int; mutable failed : int;
                mutable notes : string list }

let checks () = { attempted = 0; failed = 0; notes = [] }

let check ck name ok =
  ck.attempted <- ck.attempted + 1;
  if not ok then begin
    ck.failed <- ck.failed + 1;
    ck.notes <- name :: ck.notes
  end

(* Each executed case is an attempted operation; a quarantined one
   failed. *)
let count_cases ck (c : Campaign.t) =
  ck.attempted <- ck.attempted + List.length c.Campaign.generation.Cluster.reps;
  ck.failed <- ck.failed + List.length c.Campaign.quarantined

let check_campaign ck w (c : Campaign.t) =
  count_cases ck c;
  match w with
  | Corpus_scale | Rand_exec ->
    check ck "new bugs 9/9"
      (List.length (Oracle.new_bugs_found c.Campaign.keyed)
      = List.length Bugs.new_bugs)
  | Race_search ->
    check ck "race-window bugs 3/3"
      (List.length (Oracle.race_bugs_found c.Campaign.concurrent)
      = List.length Bugs.race_bugs)
  | Serve_2t -> ()

let digest s = Digest.to_hex (Digest.string s)

let check_fields ck =
  [ ("attempted", num_i ck.attempted); ("failed", num_i ck.failed);
    ("check_failures", Arr (List.rev_map (fun s -> Str s) ck.notes)) ]

let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* -- /proc readers -------------------------------------------------------- *)

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all with Sys_error _ -> ""

let vm_hwm_kb pid =
  let prefix = "VmHWM:" in
  String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%d/status" pid))
  |> List.find_map (fun line ->
         if String.starts_with ~prefix line then
           let v = String.sub line 6 (String.length line - 6) in
           Scanf.sscanf_opt (String.trim v) "%d" Fun.id
         else None)
  |> Option.value ~default:0

let children pid =
  read_file (Printf.sprintf "/proc/%d/task/%d/children" pid pid)
  |> String.split_on_char ' '
  |> List.filter_map int_of_string_opt

(* -- run: in-process workloads -------------------------------------------- *)

let run_inprocess w seed =
  let opts = options_of w seed in
  let w0 = words () in
  let t0 = now () in
  let prepared = Campaign.prepare opts in
  let t1 = now () in
  let c = Campaign.execute_prepared prepared in
  let t2 = now () in
  let alloc = words () -. w0 in
  let cpu = cpu_self () in
  let rss = Kit_compact.Rss.peak_kb () in
  let ck = checks () in
  check_campaign ck w c;
  print_obj
    ([ ("setup_s", Num (t1 -. t0)); ("campaign_s", Num (t2 -. t1));
       ("cpu_s", Num cpu); ("alloc_words", Num alloc);
       ("peak_rss_kb", num_i rss);
       ("digest", Str (digest (Proto.summary c)));
       ("ocaml", Str Sys.ocaml_version) ]
    @ check_fields ck)

(* -- run: serve-2t against a real daemon ---------------------------------- *)

(* The closed-loop status client pauses this long after each reply. *)
let status_pause_s = 0.010

let request_ok ck sock req =
  ck.attempted <- ck.attempted + 1;
  match Proto.request sock req with
  | Ok (Proto.Rejected _) | Error _ ->
    ck.failed <- ck.failed + 1;
    None
  | Ok r -> Some r

let tenant_state (tenants : Proto.tenant_status list) name =
  List.find_map
    (fun (ts : Proto.tenant_status) ->
      if ts.Proto.ts_name = name then Some ts.Proto.ts_state else None)
    tenants

let rec wait_pid pid =
  match Unix.waitpid [] pid with
  | _, st -> st
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_pid pid

let allocated_words_of log =
  String.split_on_char '\n' log
  |> List.find_map (fun l -> Scanf.sscanf_opt l "allocated_words: %f" Fun.id)
  |> Option.value ~default:0.0

(* The in-process reference each served tenant must match byte for
   byte; computed after the measurement, untimed. *)
let reference_summaries seed =
  List.map
    (fun (sp : Proto.spec) ->
      (sp.Proto.sp_name, Proto.summary (Campaign.run (Proto.options_of_spec sp))))
    (serve_specs seed)

(* A [kit serve] child: the benchmark reaps every daemon it spawns. *)
type daemon = { pid : int; mutable reaped : bool }

let spawn_daemon ~kit ~sock ~procs ~log_path =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let log_fd =
    Unix.openfile log_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  (* v=0x400 makes the daemon print its allocated words at exit. *)
  let env =
    Array.append [| "OCAMLRUNPARAM=v=0x400" |]
      (Array.of_list
         (List.filter
            (fun e -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" e))
            (Array.to_list (Unix.environment ()))))
  in
  let pid =
    Unix.create_process_env kit
      [| kit; "serve"; "--socket"; sock; "--procs"; string_of_int procs |]
      env devnull devnull log_fd
  in
  Unix.close devnull;
  Unix.close log_fd;
  { pid; reaped = false }

let reap d =
  d.reaped <- true;
  wait_pid d.pid

let kill_daemon d =
  if not d.reaped then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (reap d)
  end

(* Set-up: from spawning the daemon until a Status reply shows every
   worker live. *)
let start_daemon ~kit ~sock ~procs ~log_path =
  let t0 = now () in
  let d = spawn_daemon ~kit ~sock ~procs ~log_path in
  let rec await_ready tries =
    if tries = 0 then failwith "daemon never became ready";
    match Proto.request sock Proto.Status with
    | Ok (Proto.Status_is { st_pool; _ }) when st_pool.Proto.ps_live = procs -> ()
    | _ ->
      Unix.sleepf 0.001;
      await_ready (tries - 1)
  in
  (try await_ready 20_000 with e -> kill_daemon d; raise e);
  (d, now () -. t0)

let stop_daemon ck sock d =
  (match request_ok ck sock Proto.Shutdown with
   | Some Proto.Bye -> ()
   | _ -> check ck "shutdown" false);
  check ck "daemon exit 0" (reap d = Unix.WEXITED 0)

(* Daemon set-up takes milliseconds, so each iteration sets up this many
   times and reports the median; the last daemon runs the tenants. *)
let setup_repeats = 9

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let run_serve seed ~kit ~sock ~procs =
  let ck = checks () in
  let specs = serve_specs seed in
  let log_path = sock ^ ".log" in
  let daemons = ref [] in
  let start () =
    let d, dt = start_daemon ~kit ~sock ~procs ~log_path in
    daemons := d :: !daemons;
    (d, dt)
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter kill_daemon !daemons;
      (try Sys.remove sock with Sys_error _ -> ());
      try Sys.remove log_path with Sys_error _ -> ())
    (fun () ->
      let setups =
        List.init (setup_repeats - 1) (fun _ ->
            let d, dt = start () in
            stop_daemon ck sock d;
            dt)
      in
      let t = Unix.times () in
      let cpu0 =
        t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime
        +. t.Unix.tms_cstime
      in
      let d, setup = start () in
      let t_ready = now () in
      List.iter
        (fun sp ->
          match request_ok ck sock (Proto.Submit sp) with
          | Some (Proto.Accepted _) -> ()
          | _ -> check ck ("submit " ^ sp.Proto.sp_name) false)
        specs;
      let small_done = ref None and lat = ref [] in
      let rec loop () =
        Unix.sleepf status_pause_s;
        let t = now () in
        let r = request_ok ck sock Proto.Status in
        let dt = now () -. t in
        match r with
        | Some (Proto.Status_is { st_tenants; _ }) ->
          lat := dt :: !lat;
          let finished name = tenant_state st_tenants name = Some "finished" in
          if !small_done = None && finished "small" then
            small_done := Some (now () -. t_ready);
          if
            List.exists
              (fun n ->
                match tenant_state st_tenants n with
                | Some s -> String.starts_with ~prefix:"failed" s || s = "cancelled"
                | None -> true)
              [ "large"; "small" ]
          then check ck "tenants alive" false
          else if not (finished "large" && finished "small") then loop ()
        | _ -> check ck "status reply" false
      in
      loop ();
      let campaign_s = now () -. t_ready in
      let served =
        List.map
          (fun (sp : Proto.spec) ->
            let name = sp.Proto.sp_name in
            match request_ok ck sock (Proto.Results name) with
            | Some (Proto.Summary s) -> (name, s)
            | _ -> (name, ""))
          specs
      in
      let rss =
        List.fold_left (fun acc p -> acc + vm_hwm_kb p) 0 (d.pid :: children d.pid)
      in
      stop_daemon ck sock d;
      let t = Unix.times () in
      let cpu =
        t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime
        +. t.Unix.tms_cstime -. cpu0
      in
      let alloc = allocated_words_of (read_file log_path) in
      check ck "daemon alloc_words" (alloc > 0.);
      let reference = reference_summaries seed in
      List.iter
        (fun (name, s) ->
          check ck ("results " ^ name ^ " = in-process summary")
            (List.assoc_opt name reference = Some s))
        served;
      print_obj
        ([ ("setup_s", Num (median (setup :: setups)));
           ("campaign_s", Num campaign_s); ("cpu_s", Num cpu);
           ("alloc_words", Num alloc); ("peak_rss_kb", num_i rss);
           ("small_tenant_s", Num (Option.value ~default:campaign_s !small_done));
           ("status_ms", Arr (List.rev_map (fun s -> Num (s *. 1e3)) !lat));
           ("digest", Str (digest (String.concat "" (List.map snd served))));
           ("ocaml", Str Sys.ocaml_version) ]
        @ check_fields ck))

(* -- trace: spans around layer calls -------------------------------------- *)

(* One accumulator per layer name: calls, wall time and words allocated,
   inclusive of the call. Spans are kept in memory as per-layer
   aggregates; the serve-2t pass also keeps every scheduler step's
   duration, for percentiles. *)
type layer = { mutable calls : int; mutable secs : float; mutable wds : float }

let layers : (string, layer) Hashtbl.t = Hashtbl.create 64
let spanned = ref 0.0   (* total span time, for trace coverage *)

let layer name =
  match Hashtbl.find_opt layers name with
  | Some l -> l
  | None ->
    let l = { calls = 0; secs = 0.0; wds = 0.0 } in
    Hashtbl.replace layers name l;
    l

(* Off in [pass] mode: the same driver code untraced, so the traced
   pass's extra wall time is the cost of tracing. *)
let tracing = ref true

let span name f =
  if not !tracing then f () else
  let l = layer name in
  let w0 = words () in
  let t0 = now () in
  let finish () =
    let dt = now () -. t0 in
    l.calls <- l.calls + 1;
    l.secs <- l.secs +. dt;
    l.wds <- l.wds +. (words () -. w0);
    spanned := !spanned +. dt
  in
  match f () with
  | v -> finish (); v
  | exception e -> finish (); raise e

let calls name = (layer name).calls
let total_s name = (layer name).secs
let per_call_us name =
  let l = layer name in
  if l.calls = 0 then 0.0 else l.secs *. 1e6 /. float_of_int l.calls
let per_call_words name =
  let l = layer name in
  if l.calls = 0 then 0.0 else l.wds /. float_of_int l.calls
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Campaign.exec_case, re-driven from here so each layer call gets its
   own span. Must stay outcome-identical: the traced summary is checked
   against the untraced one. *)
let exec_case_traced (options : Campaign.options) corpus sup (tc : Testcase.t) =
  let sender = corpus.(tc.Testcase.sender) in
  let receiver = corpus.(tc.Testcase.receiver) in
  let funnel = Filter.funnel_create () in
  let sched = Campaign.sched_create () in
  let q0 = Supervisor.quarantine_count sup in
  let report, concurrent =
    match
      span "exec.supervisor.execute" (fun () ->
          Supervisor.execute sup ~sender ~receiver)
    with
    | Runner.Crashed _ | Runner.Hung -> (None, [])
    | Runner.Completed outcome ->
      let report =
        match
          span "detect.filter.classify" (fun () ->
              Filter.classify options.Campaign.spec ~testcase:tc ~sender
                ~receiver outcome funnel)
        with
        | Filter.Reported r -> Some r
        | Filter.No_divergence | Filter.Filtered_nondet
        | Filter.Filtered_resource ->
          None
      in
      let concurrent =
        if options.Campaign.schedules <= 1 then []
        else begin
          let search =
            span "exec.supervisor.search" (fun () ->
                Supervisor.search_schedules sup
                  ~schedules:options.Campaign.schedules ~sender ~receiver
                  outcome)
          in
          Campaign.add_sched sched
            { Campaign.sched_candidates = 1;
              sched_classes = search.Runner.sr_classes;
              sched_executed = search.Runner.sr_executed;
              sched_pruned = search.Runner.sr_pruned;
              sched_skipped = search.Runner.sr_skipped };
          span "detect.filter.classify_concurrent" (fun () ->
              List.filter_map
                (Filter.classify_concurrent options.Campaign.spec ~testcase:tc
                   ~sender ~receiver ~trace_b:outcome.Runner.trace_b)
                search.Runner.sr_findings)
        end
      in
      (report, concurrent)
  in
  { Campaign.cr_tc = tc; cr_funnel = funnel; cr_report = report;
    cr_concurrent = concurrent; cr_sched = sched;
    cr_crashes = Supervisor.quarantined_since sup q0 }

(* The traced campaign: prepare, generate, execute case by case, then
   assemble (diagnosis and aggregation) — the same path as
   [Campaign.run]. Returns the campaign, the execute-phase supervisor
   and the pass wall time. *)
let traced_campaign opts =
  let t0 = now () in
  let prepared = span "core.campaign.prepare" (fun () -> Campaign.prepare opts) in
  let generation =
    span "gen.cluster.run" (fun () -> Campaign.generate_prepared prepared)
  in
  let corpus = Campaign.prepared_corpus prepared in
  let sup = Campaign.supervisor ~obs:(Obs.create ()) opts in
  let te = now () in
  let results =
    List.map (exec_case_traced opts corpus sup) generation.Cluster.reps
  in
  let execute_s = now () -. te in
  let c =
    span "core.campaign.assemble" (fun () ->
        Campaign.assemble ~execute_s prepared generation results
          ~executions:(Supervisor.executions sup))
  in
  (c, sup, now () -. t0)

(* Replays of the prepare phase split into its layers. *)
let replay_prepare (opts : Campaign.options) =
  let corpus =
    span "abi.corpus.generate" (fun () ->
        Corpus.generate ~seed:opts.Campaign.seed ~size:opts.Campaign.corpus_size)
  in
  let profiles =
    span "gen.dataflow.profile" (fun () ->
        Dataflow.profile_corpus opts.Campaign.config opts.Campaign.spec corpus)
  in
  span "profile.accessmap.build" (fun () -> Dataflow.build_map profiles)

(* Algorithm 2 and aggregation over the campaign's reports, on a fresh
   sequential supervisor — what [Campaign.assemble] does inside. Returns
   the TestFuncI calls made and whether the culprit pairs match. *)
let replay_diagnosis (opts : Campaign.options) (c : Campaign.t) =
  let sup = Campaign.supervisor ~obs:(Obs.create ()) opts in
  let tests = ref 0 in
  let test ~sender ~receiver =
    incr tests;
    Filter.protected_interfered opts.Campaign.spec receiver
      (Supervisor.test_interference sup ~sender ~receiver)
  in
  let keyed =
    List.map
      (fun (r : Kit_detect.Report.t) ->
        span "report.diagnose" (fun () ->
            let pairs =
              Diagnose.culprits ~test ~sender:r.Kit_detect.Report.sender
                ~receiver:r.Kit_detect.Report.receiver
                ~interfered:r.Kit_detect.Report.interfered
            in
            Aggregate.key_report r pairs))
      c.Campaign.reports
  in
  let _ : Aggregate.group list * Aggregate.group list =
    span "report.aggregate" (fun () ->
        (Aggregate.agg_r keyed, Aggregate.agg_rs keyed))
  in
  let same =
    List.length keyed = List.length c.Campaign.keyed
    && List.for_all2
         (fun (a : Aggregate.keyed) (b : Aggregate.keyed) ->
           a.Aggregate.pairs = b.Aggregate.pairs)
         keyed c.Campaign.keyed
  in
  (!tests, same)

(* Sequential execution of the campaign's own pairs, one layer call per
   span: snapshot restore, interpretation, trace decoding, comparison,
   non-determinism masking and classification. Returns the heap's
   incremental-restore fraction and each case's funnel, in [reps]
   order. *)
let replay_execution (opts : Campaign.options) corpus reps =
  let env = Env.create opts.Campaign.config in
  let runner = Runner.create env in
  let k = env.Env.kernel in
  let heap = k.State.heap in
  let r0, total0 = Heap.restore_stats heap in
  let run ~sender receiver =
    span "exec.env.reset" (fun () -> Env.reset env ~base:env.Env.base0);
    Option.iter
      (fun s ->
        ignore
          (span "kernel.interp.run" (fun () ->
               Interp.run k ~pid:env.Env.sender_pid s)))
      sender;
    let res =
      span "kernel.interp.run" (fun () ->
          Interp.run k ~pid:env.Env.receiver_pid receiver)
    in
    span "trace.decode" (fun () -> Decode.decode_trace res)
  in
  let funnels =
    List.map
    (fun (tc : Testcase.t) ->
      let sender = corpus.(tc.Testcase.sender) in
      let receiver = corpus.(tc.Testcase.receiver) in
      let funnel = Filter.funnel_create () in
      let trace_a = run ~sender:(Some sender) receiver in
      let trace_b = run ~sender:None receiver in
      let raw_diffs =
        span "trace.compare" (fun () -> Compare.diff_trees trace_a trace_b)
      in
      let masked_diffs =
        if raw_diffs = [] then []
        else begin
          let mask = Runner.nondet_mask runner receiver in
          let ma = span "trace.nondet.apply_mask" (fun () ->
              Nondet.apply_mask mask trace_a) in
          let mb = span "trace.nondet.apply_mask" (fun () ->
              Nondet.apply_mask mask trace_b) in
          span "trace.compare" (fun () -> Compare.diff_trees ma mb)
        end
      in
      let outcome =
        { Runner.trace_a; trace_b; raw_diffs; masked_diffs;
          interfered = Compare.interfered_of_diffs masked_diffs }
      in
      ignore
        (span "detect.filter.classify" (fun () ->
             Filter.classify opts.Campaign.spec ~testcase:tc ~sender ~receiver
               outcome funnel));
      funnel)
    reps
  in
  let r1, total1 = Heap.restore_stats heap in
  (ratio (r1 - r0) (total1 - total0), funnels)

(* The sequential verdicts [Campaign.exec_case] reaches on [reps], on a
   fresh supervisor, untraced: the reference for the replay above. *)
let campaign_verdicts (opts : Campaign.options) corpus reps =
  let opts = { opts with Campaign.schedules = 1 } in
  let sup = Campaign.supervisor ~obs:(Obs.create ()) opts in
  List.map
    (fun tc -> (Campaign.exec_case opts corpus sup tc).Campaign.cr_funnel)
    reps

(* Partial-order reduction and interleaved execution of the campaign's
   own pairs. *)
let replay_search (opts : Campaign.options) corpus reps =
  let env = Env.create opts.Campaign.config in
  let runner = Runner.create env in
  let schedules = opts.Campaign.schedules in
  List.iter
    (fun (tc : Testcase.t) ->
      let sender = corpus.(tc.Testcase.sender) in
      let receiver = corpus.(tc.Testcase.receiver) in
      let classes =
        span "exec.runner.schedule_classes" (fun () ->
            Runner.schedule_classes runner ~schedules ~sender ~receiver)
      in
      let counts =
        [| Array.length (Runner.solo_accesses runner ~pid:env.Env.sender_pid sender);
           Array.length
             (Runner.solo_accesses runner ~pid:env.Env.receiver_pid receiver) |]
      in
      for s = 0 to schedules - 1 do
        ignore
          (span "kernel.sched.simulate" (fun () ->
               KSched.simulate (KSched.Seeded s) counts))
      done;
      List.iter
        (fun (cls : Runner.sched_class) ->
          if not cls.Runner.cls_sequential then
            try
              ignore
                (span "exec.runner.interleaved" (fun () ->
                     Runner.run_interleaved runner
                       ~schedule:(KSched.Seeded (List.hd cls.Runner.cls_seeds))
                       ~base:env.Env.base0 sender receiver))
            with Kit_kernel.Fault.Kernel_panic _ | Kit_kernel.Fault.Fuel_exhausted -> ())
        classes)
    reps

let rec take n = function
  | x :: tl when n > 0 -> x :: take (n - 1) tl
  | _ -> []

(* Pairs replayed layer by layer: enough for stable per-call means. *)
let replay_cases = 2_000
let replay_search_cases = 100

let pass_fields ~pass_s ~covered ~digest:d ck =
  [ ("pass_s", Num pass_s); ("covered_s", Num covered); ("digest", Str d);
    ("ocaml", Str Sys.ocaml_version) ]
  @ check_fields ck

(* Per-layer metrics of an in-process workload: the traced pass's spans
   plus replays of the prepare phase, diagnosis, and the campaign's own
   pairs. The replays are checked against the campaign they re-drive. *)
let inprocess_layers ck (opts : Campaign.options) (c : Campaign.t) sup =
  let reps = c.Campaign.generation.Cluster.reps in
  let nreps = List.length reps in
  let corpus = c.Campaign.corpus in
  let exec_execs = Supervisor.executions sup in
  let bh, bm, _ = Runner.baseline_cache_stats sup.Supervisor.runner in
  let mh, mm, _ = Runner.mask_cache_stats sup.Supervisor.runner in
  let map = replay_prepare opts in
  check ck "replayed access map flows = campaign df_total"
    (Dataflow.total_flows map = c.Campaign.df_total);
  let tests, same_pairs = replay_diagnosis opts c in
  check ck "replayed diagnosis = campaign diagnosis" same_pairs;
  let sample = take replay_cases reps in
  let restored_frac, funnels = replay_execution opts corpus sample in
  check ck "replayed verdicts = exec_case verdicts"
    (funnels = campaign_verdicts opts corpus sample);
  if List.length sample = nreps then begin
    let sum f = List.fold_left (fun acc x -> acc + f x) 0 funnels in
    check ck "replayed funnel = campaign funnel"
      (sum (fun f -> f.Filter.after_resource)
       = c.Campaign.funnel.Filter.after_resource
      && sum (fun f -> f.Filter.initial) = c.Campaign.funnel.Filter.initial)
  end;
  if opts.Campaign.schedules > 1 then
    replay_search opts corpus (take replay_search_cases reps);
  let s = c.Campaign.sched in
  let nprog = float_of_int opts.Campaign.corpus_size in
  [ ("abi.corpus.generate_s", Num (total_s "abi.corpus.generate"));
    ("gen.dataflow.profile_s", Num (total_s "gen.dataflow.profile"));
    ("gen.dataflow.us_per_program",
     Num (total_s "gen.dataflow.profile" *. 1e6 /. nprog));
    ("gen.dataflow.words_per_program",
     Num ((layer "gen.dataflow.profile").wds /. nprog));
    ("profile.accessmap.build_s", Num (total_s "profile.accessmap.build"));
    ("profile.accessmap.flows", num_i c.Campaign.df_total);
    ("core.campaign.prepare_s", Num (total_s "core.campaign.prepare"));
    ("gen.cluster.run_s", Num (total_s "gen.cluster.run"));
    ("gen.cluster.clusters", num_i c.Campaign.generation.Cluster.clusters);
    ("exec.supervisor.execute_us", Num (per_call_us "exec.supervisor.execute"));
    ("exec.supervisor.execute_words",
     Num (per_call_words "exec.supervisor.execute"));
    ("exec.runner.execs_per_case", Num (ratio exec_execs nreps));
    ("exec.runner.baseline_hit_ratio", Num (ratio bh (bh + bm)));
    ("exec.runner.mask_hit_ratio", Num (ratio mh (mh + mm)));
    ("report.diagnose.s", Num (total_s "report.diagnose"));
    ("report.diagnose.tests_per_report",
     Num (ratio tests (calls "report.diagnose")));
    ("report.aggregate.s", Num (total_s "report.aggregate"));
    ("core.campaign.assemble_s", Num (total_s "core.campaign.assemble"));
    ("exec.env.reset_us", Num (per_call_us "exec.env.reset"));
    ("kernel.heap.restored_frac", Num restored_frac);
    ("kernel.interp.run_us", Num (per_call_us "kernel.interp.run"));
    ("trace.decode.trace_us", Num (per_call_us "trace.decode"));
    ("trace.compare.diff_us", Num (per_call_us "trace.compare"));
    ("trace.nondet.apply_mask_us", Num (per_call_us "trace.nondet.apply_mask"));
    ("detect.filter.classify_us", Num (per_call_us "detect.filter.classify"));
    ("exec.supervisor.search_us", Num (per_call_us "exec.supervisor.search"));
    ("exec.supervisor.search_words",
     Num (per_call_words "exec.supervisor.search"));
    ("exec.runner.schedule_classes_us",
     Num (per_call_us "exec.runner.schedule_classes"));
    ("exec.runner.schedule_classes_words",
     Num (per_call_words "exec.runner.schedule_classes"));
    ("exec.runner.interleaved_us", Num (per_call_us "exec.runner.interleaved"));
    ("exec.runner.interleaved_words",
     Num (per_call_words "exec.runner.interleaved"));
    ("kernel.sched.simulate_us", Num (per_call_us "kernel.sched.simulate"));
    ("por.prune_ratio",
     Num (ratio s.Campaign.sched_pruned
            (s.Campaign.sched_candidates * opts.Campaign.schedules)));
    ("por.classes_per_case",
     Num (ratio s.Campaign.sched_classes s.Campaign.sched_candidates)) ]

let layer_fields fields = List.map (fun (k, v) -> ("layer:" ^ k, v)) fields

let trace_inprocess w seed =
  let opts = options_of w seed in
  let ck = checks () in
  let c, sup, pass_s = traced_campaign opts in
  let covered = !spanned in
  check_campaign ck w c;
  let layers = if !tracing then inprocess_layers ck opts c sup else [] in
  print_obj
    (layer_fields layers
    @ pass_fields ~pass_s ~covered ~digest:(digest (Proto.summary c)) ck)

(* -- trace: serve-2t with the scheduler hosted in-process ----------------- *)

(* Wire round trip of one value over a pipe, within the pipe buffer. *)
let pipe_roundtrip (r, w) v =
  Wire.send w v;
  match Wire.recv r with Some v' -> v' | None -> failwith "pipe closed"

(* Per-layer metrics of serve-2t beyond the hosted pass's spans: the job
   queue at the large tenant's size, pool transport against in-process
   execution, the tenant's finish (assembly and summary) over the pool's
   results, and the wire cost of result and status frames. *)
let serve_layers ck ~seed ~procs ~reference ~large_total ~steps ~last_status =
  (* The job queue at the large tenant's size: claims, and the ordered
     reads the scheduler makes on every loop turn. *)
  let q = Jobqueue.create () in
  for i = 0 to large_total - 1 do Jobqueue.submit_as q ~id:i () done;
  ignore (Jobqueue.assign_round_robin q ~workers:procs);
  for i = 0 to large_total - 1 do
    if i mod 10 = 0 then
      ignore (span "core.jobqueue.unfinished" (fun () -> Jobqueue.unfinished q));
    match
      span "core.jobqueue.claim" (fun () -> Jobqueue.claim_next q ~worker:(i mod procs))
    with
    | Some (id, ()) -> Jobqueue.complete q id ()
    | None -> check ck "jobqueue claim" false
  done;
  for _ = 1 to 50 do
    ignore (span "core.jobqueue.results" (fun () -> Jobqueue.results q))
  done;
  (* Pool transport: the large tenant's cases on a one-worker pool
     against the same cases in-process. *)
  let opts = Proto.options_of_spec (List.hd (serve_specs seed)) in
  let prepared = Campaign.prepare opts in
  let generation = Campaign.generate_prepared prepared in
  let corpus = Campaign.prepared_corpus prepared in
  let nreps = List.length generation.Cluster.reps in
  let tp = now () in
  let outcome =
    Pool.execute { Pool.default_config with Pool.procs = 1 } opts corpus
      generation
  in
  let pool_s = now () -. tp in
  (* What Tenant.finish does with the large tenant's results. *)
  let summary =
    span "serve.tenant.finish" (fun () ->
        Proto.summary
          (Campaign.assemble prepared generation outcome.Pool.results
             ~executions:outcome.Pool.executions))
  in
  check ck "pool results assembled = in-process summary"
    (List.assoc_opt "large" reference = Some summary);
  let sup = Campaign.supervisor ~obs:(Obs.create ()) opts in
  let ti = now () in
  List.iter (fun tc -> ignore (Campaign.exec_case opts corpus sup tc))
    generation.Cluster.reps;
  let inproc_s = now () -. ti in
  let pipe = Unix.pipe ~cloexec:true () in
  let frame_bytes = ref 0 and frames = ref 0 in
  List.iteri
    (fun id (r : Campaign.case_result) ->
      let frame = (0, id, r, 0) in
      let n = String.length (Marshal.to_string frame [ Marshal.No_sharing ]) in
      frame_bytes := !frame_bytes + n;
      incr frames;
      (* a frame beyond the pipe buffer would block this single process *)
      if n < 60_000 then
        ignore (span "serve.wire.roundtrip" (fun () -> pipe_roundtrip pipe frame)))
    outcome.Pool.results;
  (match last_status with
   | Some reply ->
     for _ = 1 to 200 do
       span "serve.proto.request" (fun () ->
           ignore (pipe_roundtrip pipe Proto.Status);
           ignore (pipe_roundtrip pipe reply))
     done
   | None -> check ck "status reply" false);
  Unix.close (fst pipe);
  Unix.close (snd pipe);
  let fields =
    [ ("serve.sched.step_calls", num_i (calls "serve.sched.step"));
      ("serve.sched.step_us", Arr (List.rev_map (fun s -> Num (s *. 1e6)) steps));
      ("serve.tenant.finish_s", Num (per_call_us "serve.tenant.finish" /. 1e6));
      ("serve.sched.status_us", Num (per_call_us "serve.sched.status"));
      ("serve.proto.request_us", Num (per_call_us "serve.proto.request"));
      ("core.jobqueue.claim_us", Num (per_call_us "core.jobqueue.claim"));
      ("core.jobqueue.results_us", Num (per_call_us "core.jobqueue.results"));
      ("core.jobqueue.unfinished_us", Num (per_call_us "core.jobqueue.unfinished"));
      ("core.jobqueue.jobs", num_i large_total);
      ("serve.pool.case_overhead_us",
       Num ((pool_s -. inproc_s) *. 1e6 /. float_of_int (max 1 nreps)));
      ("serve.wire.done_frame_bytes",
       Num (float_of_int !frame_bytes /. float_of_int (max 1 !frames)));
      ("serve.wire.roundtrip_us", Num (per_call_us "serve.wire.roundtrip")) ]
  in
  fields

let trace_serve seed ~procs =
  let ck = checks () in
  let specs = serve_specs seed in
  let cfg =
    { Sched.default_config with
      Sched.sc_pool = { Pool.default_config with Pool.procs } }
  in
  let s = Sched.create cfg in
  let steps = ref [] and last_status = ref None in
  let t0 = now () in
  let served =
    Fun.protect ~finally:(fun () -> Sched.shutdown s) (fun () ->
        List.iter
          (fun sp ->
            match
              span "serve.sched.request" (fun () ->
                  Sched.request s (Proto.Submit sp))
            with
            | Proto.Accepted _ -> ()
            | _ -> check ck ("submit " ^ sp.Proto.sp_name) false)
          specs;
        let next_status = ref (now ()) in
        while Sched.busy s do
          let t = now () in
          ignore (span "serve.sched.step" (fun () -> Sched.step s ~timeout:0.05));
          steps := (now () -. t) :: !steps;
          if now () >= !next_status then begin
            last_status :=
              Some (span "serve.sched.status" (fun () ->
                        Sched.request s Proto.Status));
            next_status := now () +. status_pause_s
          end
        done;
        List.map
          (fun (sp : Proto.spec) ->
            match Sched.request s (Proto.Results sp.Proto.sp_name) with
            | Proto.Summary x -> (sp.Proto.sp_name, x)
            | _ -> (sp.Proto.sp_name, ""))
          specs)
  in
  let pass_s = now () -. t0 in
  let covered = !spanned in
  let large_total =
    match Sched.find_name s "large" with Some tn -> Tenant.total tn | None -> 0
  in
  let reference = reference_summaries seed in
  List.iter
    (fun (name, x) ->
      check ck ("results " ^ name ^ " = in-process summary")
        (List.assoc_opt name reference = Some x))
    served;
  ck.attempted <- ck.attempted + large_total;
  let layers =
    if !tracing then
      serve_layers ck ~seed ~procs ~reference ~large_total ~steps:!steps
        ~last_status:!last_status
    else []
  in
  print_obj
    (layer_fields layers
    @ pass_fields ~pass_s ~covered
        ~digest:(digest (String.concat "" (List.map snd served))) ck)

let () =
  match Array.to_list Sys.argv with
  | [ _; "run"; w; seed ] -> run_inprocess (workload_of_string w) (int_of_string seed)
  | [ _; "run"; "serve-2t"; seed; kit; sock; procs ] ->
    run_serve (int_of_string seed) ~kit ~sock ~procs:(int_of_string procs)
  | [ _; ("trace" | "pass" as mode); "serve-2t"; seed; procs ] ->
    tracing := mode = "trace";
    trace_serve (int_of_string seed) ~procs:(int_of_string procs)
  | [ _; ("trace" | "pass" as mode); w; seed ] ->
    tracing := mode = "trace";
    trace_inprocess (workload_of_string w) (int_of_string seed)
  | _ ->
    prerr_endline
      "usage: kitbench run WORKLOAD SEED [KIT SOCKET PROCS]\n\
      \       kitbench (trace|pass) WORKLOAD SEED [PROCS]";
    exit 2
