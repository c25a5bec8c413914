#!/usr/bin/env python3
"""Pins streamkc_cli's input rules: each refused command line exits 2 with an
`error:` line.

The cases:
  * every (command, flag) pair outside the CLI's flag declaration (kFlags
    in tools/streamkc_cli.cc, mirrored in FLAGS below), each added to a
    command line the command accepts, prints
    `error: --FLAG does not apply to COMMAND`;
  * an unknown flag;
  * --alpha 0 is refused, and --alpha 2.5 runs (α is a real number >= 1);
  * --budget-kb 256 on the cli_demo shape, below its space floor of
    ~378.5 KiB (the footprint model at α = √m), and --budget-kb with
    --alpha, its alternative;
  * thread, process and segment counts of 2^32, which do not fit the
    runtime's 32-bit options.

A WILL_FAIL ctest cannot tell a usage error from a CHECK abort, so this
script checks the exit code itself. Its counts are 2^32, which would wrap
to 0: a large count that fits would start that many threads or processes.

usage: cli_input.py CLI EDGES
EDGES is the cli_demo file the ctest fixture generates (m=512 n=1024 k=16).
"""

import os
import shutil
import subprocess
import sys
import tempfile

SOLVERS = {"estimate", "report", "twopass", "serve"}
SHARDED = {"estimate", "report"}
RUNTIMES = SHARDED | {"serve", "sketch"}

# Flag -> (the commands that read it, a value to pass; None for a switch).
FLAGS = {
    "--m": ({"generate"} | SOLVERS, "512"),
    "--n": ({"generate"} | SOLVERS, "1024"),
    "--k": ({"generate"} | SOLVERS, "16"),
    "--seed": ({"generate", "sketch"} | SOLVERS, "3"),
    "--alpha": (SOLVERS, "8"),
    "--budget-kb": (SOLVERS, "4096"),
    "--family": ({"generate"}, "planted"),
    "--out": ({"generate"}, "{tmp}/out.txt"),
    "--threads": (SHARDED | {"serve"}, "2"),
    "--producers": (SHARDED, "2"),
    "--batch-size": (SOLVERS | {"sketch"}, "64"),
    "--partition": (SHARDED, "set"),
    "--metrics-out": (RUNTIMES, "{tmp}/metrics.json"),
    "--metrics-format": (RUNTIMES, "json"),
    "--snapshot-every": ({"serve"}, "1024"),
    "--query-threads": ({"serve"}, "1"),
    "--workers": ({"sketch"}, "1"),
    "--checkpoint-every": ({"sketch"}, "1"),
    "--checkpoint-dir": ({"sketch"}, "{tmp}"),
    "--segments": ({"sketch"}, "4"),
    "--lenient": ({"stats", "sketch"} | SOLVERS, None),
    "--fault-plan": (RUNTIMES, "seed=1,dup=0.5"),
    "--fault-strict": (RUNTIMES, None),
    "--hash-kernel": (SOLVERS | {"sketch"}, "scalar"),
}

SHAPE = ["--m", "512", "--n", "1024", "--k", "16"]
TWO_32 = str(2 ** 32)


def base_lines(edges, tmp):
    """A command line each command accepts (exit 0)."""
    solver = [edges] + SHAPE + ["--alpha", "8"]
    return {
        "generate": ["--family", "planted", "--m", "64", "--n", "128",
                     "--k", "4", "--out", os.path.join(tmp, "gen.txt")],
        "stats": [edges],
        "estimate": solver,
        "report": solver,
        "twopass": solver,
        "serve": solver + ["--query-threads", "1"],
        "sketch": [edges, "--seed", "5"],
    }


def run(cli, command, args):
    return subprocess.run([cli, command] + args, capture_output=True,
                          text=True, timeout=120)


def error_lines(proc):
    return [line for line in proc.stderr.splitlines()
            if line.startswith("error:")]


class Checker:
    def __init__(self, cli):
        self.cli = cli
        self.failures = 0
        self.cases = 0

    def refused(self, command, args, want):
        """Exit 2 and an `error:` line containing `want`."""
        self.cases += 1
        proc = run(self.cli, command, args)
        errors = error_lines(proc)
        if proc.returncode == 2 and any(want in e for e in errors):
            return
        self.failures += 1
        print("FAIL: %s %s\n  want exit 2 and an error line with %r\n"
              "  got exit %d, error lines %s" %
              (command, " ".join(args), want, proc.returncode, errors))

    def accepted(self, command, args, want_stdout):
        """Exit 0 with `want_stdout` in the output."""
        self.cases += 1
        proc = run(self.cli, command, args)
        if proc.returncode == 0 and want_stdout in proc.stdout:
            return
        self.failures += 1
        print("FAIL: %s %s\n  want exit 0 and %r in stdout\n"
              "  got exit %d, stderr %s" %
              (command, " ".join(args), want_stdout, proc.returncode,
               proc.stderr.strip().splitlines()[:1]))


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    cli, edges = sys.argv[1], sys.argv[2]
    tmp = tempfile.mkdtemp(prefix="cli_input_")
    try:
        check = Checker(cli)
        bases = base_lines(edges, tmp)
        for command, base in bases.items():
            check.accepted(command, base, "")
            for flag, (commands, value) in FLAGS.items():
                if command in commands:
                    continue
                args = base + [flag]
                if value is not None:
                    args.append(value.format(tmp=tmp))
                check.refused(command, args,
                              "%s does not apply to %s" % (flag, command))

        solver = [edges] + SHAPE
        check.refused("estimate", solver + ["--alpha", "8", "--bogus"],
                      "unknown flag --bogus")
        check.refused("estimate", solver + ["--alpha", "0"], "--alpha")
        check.accepted("estimate", solver + ["--alpha", "2.5"],
                       "coverage estimate")
        check.refused("estimate", solver + ["--budget-kb", "256"], "378")
        check.refused("estimate",
                      solver + ["--alpha", "8", "--budget-kb", "1024"],
                      "--budget-kb")

        check.refused("estimate", solver + ["--threads", TWO_32],
                      "--threads")
        check.refused("estimate",
                      solver + ["--threads", "2", "--producers", TWO_32],
                      "--producers")
        check.refused("serve", solver + ["--threads", TWO_32], "--threads")
        check.refused("sketch", [edges, "--workers", TWO_32], "--workers")
        check.refused("sketch", [edges, "--segments", TWO_32], "--segments")
        check.refused("sketch",
                      [edges, "--workers", "1", "--checkpoint-every", TWO_32,
                       "--checkpoint-dir", tmp],
                      "--checkpoint-every")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("cli_input: %d of %d cases ok" %
          (check.cases - check.failures, check.cases))
    return 1 if check.failures else 0


if __name__ == "__main__":
    sys.exit(main())
