#!/usr/bin/env python3
"""KIT end-to-end benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds `kit` and `perfbench/kitbench.exe`
from source into `.bench_build`, then:

* `--trace 0`: runs workload W in rounds until S seconds are used (at
  least three rounds). A round runs W once on each of the workload's
  input seeds derived from N, each in a fresh `kitbench run` process,
  and averages them; averaging over several inputs keeps one corpus's
  quirks out of the figures. Every process's outputs are checked. The
  result is the median over rounds of each end-to-end metric named in
  BENCHMARK.json, with the times scaled to the host's speed (below);
* `--trace 1`: on the first derived seed, runs W once untraced
  (`kitbench run`), then alternates an
  untraced and a traced replica of the campaign driver (`kitbench pass`
  and `kitbench trace`) while time remains, checks that all of them
  produce the same `Proto.summary`, and reports the median of each
  per-layer metric. A per-layer metric reads 0 on a workload that does
  not drive that layer; one that W drives (DRIVES) and that reads 0
  fails a check.

Host speed. The host is shared, and the speed it gives one process
drifts by 20% or more over minutes, which medians within a run cannot
remove. So in untraced runs a `refwork` process (a fixed stdlib-only
workload, no kit code) runs before every `kitbench run` process and after
the last one, and the times (setup_s, campaign_s, cpu_s) are reported in
reference seconds: the median over rounds times REF_S / (median refwork time of
the run). They read as seconds on a host where refwork takes REF_S;
when refwork takes REF_S, they are the wall and CPU times as measured.
The info line holds the unscaled medians, the refwork samples and the
scale. peak_rss_kb and alloc_words are not scaled.

End-to-end metrics, per process:

* setup_s: in-process workloads, `Campaign.prepare` (corpus, profiling,
  access map); serve-2t, spawning `kit serve` until a Status reply shows
  every worker live (median of nine daemons per process).
* campaign_s: in-process, `Campaign.execute_prepared`; serve-2t, the
  first Submit until both tenants are finished.
* cpu_s: user plus system time of the process, plus, for serve-2t, the
  reaped daemon and its workers.
* peak_rss_kb: VmHWM of the process; serve-2t, of the daemon plus its
  workers.
* alloc_words: words allocated by the process, the same in every round
  (checked); serve-2t, by the daemon (reported at its exit; pool workers
  are not counted), which varies with the requests and poll turns it
  handles.

Failed operations (quarantined cases, failed or refused requests, failed
output checks) are counted in the result's `failed` out of `attempted`.
serve-2t's status latency and small-tenant time exist only where a
daemon serves; they are printed on the info line and, as
`serve.client.*`, in the per-layer metrics.

Earlier lines of standard output describe the run (host, versions, raw
per-round values); the last line is the JSON result.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
KITBENCH = os.path.join(BUILD_DIR, "default", "perfbench", "kitbench.exe")
KIT = os.path.join(BUILD_DIR, "default", "bin", "kit_cli.exe")
REFWORK = os.path.join(BUILD_DIR, "default", "perfbench", "refwork.exe")
# refwork's median time on the host BASELINE.md was recorded on (2 vCPUs
# of a shared Xeon at 2.1 GHz); the scaled times read as seconds there.
REF_S = 0.2
# The end-to-end metrics scaled to the host's speed.
TIMES = ("setup_s", "campaign_s", "cpu_s")
# Input seeds per round, derived from --seed. serve-2t's cost is set by
# its tenants' fixed case counts, not by the corpus, so one input does.
INPUTS = {"corpus-scale": 8, "rand-exec": 3, "race-search": 3, "serve-2t": 1}
WORKLOADS = tuple(INPUTS)
MIN_ROUNDS = 3
# The per-layer metrics each workload drives; in a traced run each must
# be emitted and nonzero, or the layer's hook is broken.
_REPLAYED = ("exec.env.reset_us", "kernel.heap.restored_frac", "kernel.interp.run_us",
             "trace.decode.trace_us", "trace.compare.diff_us",
             "trace.nondet.apply_mask_us", "detect.filter.classify_us")
_BENCH = ("bench.trace_covered_frac", "bench.trace_overhead_frac")
DRIVES = {
    "corpus-scale": ("abi.corpus.generate_s", "gen.dataflow.profile_s",
                     "gen.dataflow.us_per_program", "gen.dataflow.words_per_program",
                     "profile.accessmap.build_s", "profile.accessmap.flows",
                     "core.campaign.prepare_s", "gen.cluster.run_s",
                     "gen.cluster.clusters") + _BENCH,
    "rand-exec": ("exec.supervisor.execute_us", "exec.supervisor.execute_words",
                  "exec.runner.execs_per_case", "exec.runner.baseline_hit_ratio",
                  "exec.runner.mask_hit_ratio", "report.diagnose.s",
                  "report.diagnose.tests_per_report", "report.aggregate.s",
                  "core.campaign.assemble_s") + _REPLAYED + _BENCH,
    "race-search": ("exec.supervisor.search_us", "exec.supervisor.search_words",
                    "exec.runner.schedule_classes_us", "exec.runner.schedule_classes_words",
                    "exec.runner.interleaved_us", "exec.runner.interleaved_words",
                    "kernel.sched.simulate_us", "por.prune_ratio",
                    "por.classes_per_case") + _REPLAYED + _BENCH,
    "serve-2t": ("serve.sched.step_calls", "serve.sched.step_us_p50",
                 "serve.sched.step_us_tail", "serve.sched.step_tail_pct",
                 "serve.tenant.finish_s", "serve.sched.status_us", "serve.proto.request_us",
                 "core.jobqueue.claim_us", "core.jobqueue.results_us",
                 "core.jobqueue.unfinished_us", "core.jobqueue.jobs",
                 "serve.pool.case_overhead_us", "serve.wire.done_frame_bytes",
                 "serve.wire.roundtrip_us", "serve.client.small_tenant_s",
                 "serve.client.status_ms_p50", "serve.client.status_ms_tail",
                 "serve.client.status_tail_pct", "serve.client.status_samples") + _BENCH,
}
ITERATION_TIMEOUT_S = 120


def fail(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(2)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "perfbench/kitbench.exe", "perfbench/refwork.exe",
           "bin/kit_cli.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0 or not (os.path.exists(KITBENCH) and os.path.exists(REFWORK)):
        fail("build failed:\n" + r.stdout + r.stderr)


def run_kitbench(args):
    """One fresh kitbench process; returns its JSON line and wall time.

    The process gets its own session so that, on a timeout, the kill
    reaches a daemon and pool workers it may have started."""
    t0 = time.monotonic()
    p = subprocess.Popen([KITBENCH] + args, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        out, err = p.communicate(timeout=ITERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        fail("kitbench %s timed out" % " ".join(args))
    finally:
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if p.returncode != 0:
        fail("kitbench %s exited %d:\n%s" % (" ".join(args), p.returncode, err))
    lines = out.strip().splitlines()
    if not lines:
        fail("kitbench %s printed nothing" % " ".join(args))
    return json.loads(lines[-1]), time.monotonic() - t0


def run_refwork():
    """One refwork process: (seconds, checksum)."""
    try:
        r = subprocess.run([REFWORK], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=ITERATION_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("refwork failed: %s" % e)
    if r.returncode != 0:
        fail("refwork exited %d:\n%s" % (r.returncode, r.stderr))
    secs, checksum = r.stdout.split()
    return float(secs), checksum


def source_id():
    """The commit when run from a git checkout; always a digest of the
    sources the benchmark builds."""
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for d, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli", ".py")) or f in ("dune", "dune-project"):
                    path = os.path.join(d, f)
                    h.update(path.encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and os.path.realpath(out[0]) == os.path.realpath("."):
            commit = out[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"commit": commit, "source_sha256": h.hexdigest()[:16]}


def tail(samples):
    """(percentile, value): the highest percentile of a fixed ladder with at
    least ten samples beyond it; (0, 0) below ten samples."""
    xs = sorted(samples)
    n = len(xs)
    for p in (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1 - p / 100) >= 10:
            return p, xs[max(0, math.ceil(p / 100 * n) - 1)]
    return 0.0, 0.0


def serve_procs():
    return min(2, len(os.sched_getaffinity(0)))


def run_args(workload, seed, i):
    if workload != "serve-2t":
        return ["run", workload, str(seed)]
    sock = os.path.join(BUILD_DIR, "kb-%d-%d.sock" % (os.getpid(), i))
    return ["run", workload, str(seed), KIT, sock, str(serve_procs())]


def pass_args(mode, workload, seed):
    args = [mode, workload, str(seed)]
    return args + [str(serve_procs())] if workload == "serve-2t" else args


def client_metrics(runs):
    """Status latency and small-tenant time seen by the serve-2t client."""
    lat = [x for r in runs for x in r["status_ms"]]
    pct, value = tail(lat)
    return {
        "serve.client.small_tenant_s": statistics.median(r["small_tenant_s"] for r in runs),
        "serve.client.status_ms_p50": statistics.median(lat) if lat else 0.0,
        "serve.client.status_ms_tail": value,
        "serve.client.status_tail_pct": pct,
        "serve.client.status_samples": len(lat),
    }


def step_metrics(t):
    """Scheduler step latency of a traced serve-2t pass."""
    steps = t.get("layer:serve.sched.step_us", [])
    pct, value = tail(steps)
    return {"serve.sched.step_us_p50": statistics.median(steps) if steps else 0.0,
            "serve.sched.step_us_tail": value, "serve.sched.step_tail_pct": pct}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    build()

    info = {"workload": a.workload, "seed": a.seed, "trace": a.trace,
            "nproc": os.cpu_count(), "serve_procs": serve_procs()}
    info.update(source_id())
    attempted = failed = 0
    notes = []

    def absorb(r):
        nonlocal attempted, failed
        attempted += r["attempted"]
        failed += r["failed"]
        notes.extend(r["check_failures"])
        info["ocaml"] = r["ocaml"]

    def all_equal(values, what):
        """One check: every value must be the same."""
        nonlocal attempted, failed
        attempted += 1
        if len(set(values)) != 1:
            failed += 1
            notes.append(what)

    n_inputs = INPUTS[a.workload]
    seeds = [a.seed * n_inputs + i for i in range(n_inputs)]
    info["input_seeds"] = seeds
    start = time.monotonic()
    if a.trace == 0:
        wanted = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        rounds, runs, refs, longest = [], [], [], 0.0
        while (len(rounds) < MIN_ROUNDS
               or time.monotonic() - start + longest <= a.seconds):
            t0 = time.monotonic()
            rs = []
            for i, s in enumerate(seeds):
                refs.append(run_refwork())
                rs.append(run_kitbench(run_args(a.workload, s, len(runs) + i))[0])
            longest = max(longest, time.monotonic() - t0)
            for r in rs:
                absorb(r)
            runs.extend(rs)
            rounds.append(rs)
        refs.append(run_refwork())
        all_equal([tuple(r["digest"] for r in rs) for rs in rounds],
                    "summary differs between rounds")
        all_equal([c for _, c in refs], "refwork checksum differs between runs")
        ref_s = statistics.median(t for t, _ in refs)
        scale = REF_S / ref_s
        per_round = {name: [statistics.fmean(r[name] for r in rs) for rs in rounds]
                     for name, _ in wanted}
        if a.workload != "serve-2t":
            # in-process allocation is deterministic; the daemon's depends
            # on how many requests and poll turns it handles
            all_equal(per_round["alloc_words"], "alloc_words differs between rounds")
        raw = {name: statistics.median(per_round[name]) for name, _ in wanted}
        metrics = {name: {"value": raw[name] * (scale if name in TIMES else 1), "unit": unit}
                   for name, unit in wanted}
        info["rounds"] = len(rounds)
        info["unscaled"] = raw
        info["refwork_s"] = [t for t, _ in refs]
        info["scale"] = scale
        info["per_round"] = per_round
        if a.workload == "serve-2t":
            info.update(client_metrics(runs))
    else:
        untraced, _ = run_kitbench(run_args(a.workload, seeds[0], 0))
        absorb(untraced)
        pairs, longest = [], 0.0
        while not pairs or time.monotonic() - start + longest <= a.seconds:
            t0 = time.monotonic()
            p, _ = run_kitbench(pass_args("pass", a.workload, seeds[0]))
            t, _ = run_kitbench(pass_args("trace", a.workload, seeds[0]))
            longest = max(longest, time.monotonic() - t0)
            absorb(p)
            absorb(t)
            pairs.append((p, t))
        all_equal([untraced["digest"]] + [x["digest"] for pt in pairs for x in pt],
                    "traced summary differs from untraced summary")
        values = {}
        for name in (m["name"] for m in spec["per_layer"]):
            key = "layer:" + name
            values[name] = [t[key] for _, t in pairs if key in t]
        values["bench.trace_covered_frac"] = [t["covered_s"] / t["pass_s"] for _, t in pairs]
        values["bench.trace_overhead_frac"] = [t["pass_s"] / p["pass_s"] - 1 for p, t in pairs]
        if a.workload == "serve-2t":
            for _, t in pairs:
                for name, v in step_metrics(t).items():
                    values[name].append(v)
            for name, v in client_metrics([untraced]).items():
                values[name] = [v]
        metrics = {m["name"]: {"value": statistics.median(values[m["name"]]) if values[m["name"]] else 0,
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
        for name in DRIVES[a.workload]:
            attempted += 1
            if metrics.get(name, {"value": 0})["value"] == 0:
                failed += 1
                notes.append("layer metric %s missing or 0" % name)
        info["pairs"] = len(pairs)
    info["check_failures"] = notes
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
