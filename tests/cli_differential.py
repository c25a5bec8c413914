#!/usr/bin/env python3
"""Differential check of streamkc_cli's answers across ingest drivers.

Runs `estimate`, `report`, `serve` and `sketch` on one edge file inline and
sharded (--threads, --producers), level-parallel (`serve --threads`) and
multi-process (--workers), and fails unless every such run prints the
inline run's answer lines. Only answer lines are compared: memory lines may
differ for a legitimate reason (a merged state accounts for capacity
differently from an inline one). `serve` publishes at a cadence of a
quarter of the file, so its answer is the last of at least 4 snapshots.

usage: cli_differential.py CLI EDGES [--m M] [--n N] [--k K] [--alpha A]
                                     [--seed S]
The shape defaults match the cli_demo file the ctest fixture generates.
"""

import argparse
import subprocess
import sys

# (command, answer-line prefixes, driver variants; the first is inline).
CHECKS = [
    ("estimate", ("coverage estimate", "winning subroutine"),
     [[], ["--threads", "1"], ["--threads", "4"],
      ["--threads", "4", "--producers", "2"]]),
    ("report", ("coverage estimate", "selected sets"),
     [[], ["--threads", "4", "--partition", "set"]]),
    ("serve", ("coverage estimate", "selected sets"),
     [[], ["--threads", "2"], ["--threads", "4"]]),
    ("sketch", ("distinct covered", "element F2", "merge fingerprint"),
     [[], ["--workers", "4"], ["--workers", "2", "--segments", "5"]]),
]


def count_edges(path):
    with open(path, "r", encoding="utf-8") as f:
        return sum(1 for line in f if line.strip() and
                   not line.lstrip().startswith("#"))


def answer_lines(cmd, prefixes):
    run = subprocess.run(cmd, capture_output=True, text=True)
    if run.returncode != 0:
        sys.exit("FAIL: %s exited %d\n%s" %
                 (" ".join(cmd), run.returncode, run.stderr))
    return [line.rstrip() for line in run.stdout.splitlines()
            if line.startswith(prefixes)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("cli")
    parser.add_argument("edges")
    parser.add_argument("--m", default="512")
    parser.add_argument("--n", default="1024")
    parser.add_argument("--k", default="16")
    parser.add_argument("--alpha", default="8")
    parser.add_argument("--seed", default="5")
    args = parser.parse_args()
    shape = ["--m", args.m, "--n", args.n, "--k", args.k,
             "--alpha", args.alpha]
    cadence = str(max(1, count_edges(args.edges) // 4))

    failures = 0
    for command, prefixes, variants in CHECKS:
        base = [args.cli, command, args.edges, "--seed", args.seed]
        if command != "sketch":
            base += shape
        if command == "serve":
            base += ["--snapshot-every", cadence, "--query-threads", "1"]
        want = answer_lines(base, prefixes)
        if len(want) != len(prefixes):
            print("FAIL: inline %s printed %d of the %d answer lines: %s" %
                  (command, len(want), len(prefixes), want))
            failures += 1
            continue
        for variant in variants[1:]:
            got = answer_lines(base + variant, prefixes)
            label = "%s %s" % (command, " ".join(variant))
            if got == want:
                print("ok  : %s" % label)
            else:
                print("FAIL: %s\n  inline: %s\n  driver: %s" %
                      (label, want, got))
                failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
