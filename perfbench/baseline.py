#!/usr/bin/env python3
"""Record the benchmark's reference figures.

    python3 perfbench/baseline.py > perfbench/BASELINE.md

Run from the repository root. For every workload in BENCHMARK.json it
runs `perfbench/run.py` untraced on RUNS consecutive seeds and once
traced on the first seed, then prints a Markdown report: the median and
quartiles of every end-to-end metric per workload, with the spread
(quartile distance over median) the acceptance rule compares to each
bound, the first seed's per-round alloc_words, and the per-layer table.
"""

import json
import statistics
import subprocess
import sys
import time

RUNS = 10
FIRST_SEED = 1

def bench(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit("%s failed:\n%s" % (" ".join(cmd), out.stderr))
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def fmt(x):
    return "%.4g" % x


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = list(range(FIRST_SEED, FIRST_SEED + RUNS))
    e2e, layers, repeats, info, failures = {}, {}, {}, None, 0
    for w in workloads:
        for s in seeds:
            info, r = bench(spec, w, s, 0)
            failures += r["failed"]
            for k, v in r["metrics"].items():
                e2e.setdefault((w, k), []).append(v["value"])
            if s == seeds[0]:
                repeats[w] = info["per_round"]["alloc_words"]
        _, r = bench(spec, w, seeds[0], 1)
        failures += r["failed"]
        layers[w] = {k: v["value"] for k, v in r["metrics"].items()}

    print("# perfbench reference figures\n")
    print("Recorded %s by `python3 perfbench/baseline.py`." % time.strftime("%Y-%m-%d"))
    print("Host: %s CPUs, OCaml %s, commit %s (source digest %s); %d s per run; "
          "failed operations: %d.\n" % (info["nproc"], info["ocaml"], info["commit"],
                                         info["source_sha256"], spec["run_seconds"], failures))
    print("## End-to-end metrics, seeds %d-%d\n" % (seeds[0], seeds[-1]))
    print("setup_s, campaign_s and cpu_s are in reference seconds: each run's "
          "median scaled by REF_S / (its median refwork time), as run.py "
          "describes.\n")
    print("| workload | metric | unit | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|---|")
    for w in workloads:
        for m in spec["end_to_end"]:
            v = e2e[(w, m["name"])]
            q1, _, q3 = statistics.quantiles(v, n=4)
            print("| %s | %s | %s | %s | %s | %s | %.3f | %s |"
                  % (w, m["name"], m["unit"], fmt(statistics.median(v)), fmt(q1), fmt(q3),
                     (q3 - q1) / statistics.median(v), m["bound"]))
    print("\n## alloc_words, same-seed repeats\n")
    print("Every round of the seed-%d run repeats the same inputs in fresh processes. "
          "In-process workloads must allocate the same words in every round (run.py "
          "checks it); serve-2t counts the daemon, whose requests and poll turns "
          "depend on timing.\n" % seeds[0])
    print("| workload | rounds | alloc_words per round |")
    print("|---|---|---|")
    for w in workloads:
        print("| %s | %d | %s |" % (w, len(repeats[w]),
                                    ", ".join("%.0f" % x for x in repeats[w])))
    print("\n## Per-layer metrics, traced run on seed %d\n" % seeds[0])
    print("0 means the workload does not drive that layer.\n")
    print("| metric | unit | " + " | ".join(workloads) + " |")
    print("|---|---|" + "---|" * len(workloads))
    for m in spec["per_layer"]:
        print("| %s | %s | %s |" % (m["name"], m["unit"],
                                   " | ".join(fmt(layers[w][m["name"]]) for w in workloads)))


if __name__ == "__main__":
    main()
