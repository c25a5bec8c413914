#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale.

    python3 perfbench/selftest.py

Run it from the repository root. Every workload runs once untraced and once
traced at --scale tiny. Each run must exit 0, pass its answer checks and
print exactly the metrics BENCHMARK.json declares, with their units. The
traced runs must show the traffic each workload was chosen for. A workload
that needs more CPUs than the host has must be refused with exit code 3.
Finally, the benchmark must fail without printing a result in a directory
that holds only BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Threads each workload runs at once: ingest + shard workers + readers.
THREADS = {"ingest_bulk": 3, "serve_fresh": 3, "sharded_ingest": 4,
           "few_sets": 3}


def run(root, workload, trace):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    nproc = len(os.sched_getaffinity(0))
    errors = []
    traced = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            done = run(ROOT, workload, trace)
            if THREADS[workload] > nproc:
                if done.returncode != 3:
                    errors.append(f"{label}: expected exit 3 on {nproc} CPUs")
                continue
            if done.returncode != 0:
                errors.append(f"{label}: exit {done.returncode}\n"
                              f"{done.stderr[-2000:]}")
                continue
            result = json.loads(done.stdout.strip().split("\n")[-1])
            if not result["correct"] or result["failed"] != 0:
                errors.append(f"{label}: answer check failed\n"
                              f"{done.stderr[-2000:]}")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != declared[trace]:
                errors.append(f"{label}: metrics differ from BENCHMARK.json: "
                              f"{sorted(set(units) ^ set(declared[trace]))}")
            if trace:
                traced[workload] = {k: v["value"]
                                    for k, v in result["metrics"].items()}
            print(f"ok {label}", flush=True)

    core_ingest = lambda m: [k for k, v in m.items() if k.startswith("core.")
                             and k.endswith(".ns_per_edge") and v > 0]
    if "ingest_bulk" in traced:
        m = traced["ingest_bulk"]
        if not m["trace.attributed_frac"] > 0 or not core_ingest(m):
            errors.append("ingest_bulk: no attributed core.*.z<j> spans")
    if "few_sets" in traced and core_ingest(traced["few_sets"]):
        errors.append("few_sets: has core.* ingest spans")
    for workload, m in traced.items():
        if (m["runtime.segment_run_ms"] > 0) != (workload == "sharded_ingest"):
            errors.append(f"{workload}: runtime.segment_run_ms is "
                          f"{m['runtime.segment_run_ms']}")

    # Without the sources next to it the benchmark must fail, printing no
    # result.
    lonely = os.path.join(ROOT, ".bench_out", "selftest-lonely")
    shutil.rmtree(lonely, ignore_errors=True)
    os.makedirs(lonely)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lonely)
    shutil.copytree(HERE, os.path.join(lonely, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run(lonely, "few_sets", 0)
    if done.returncode == 0 or done.stdout.strip():
        errors.append("benchmark ran without the streamkc sources")
    shutil.rmtree(lonely)

    for e in errors:
        print(f"FAIL {e}")
    print("selftest:", "FAILED" if errors else "passed")
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
