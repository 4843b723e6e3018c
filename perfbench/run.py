"""Build and run the repository benchmark.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe with dune (into _build/ of the checkout, shared
cache off), runs it with the same arguments, and passes its output through.
The last line of stdout is the result object; the exit code is 0 only when
the build and the run succeeded and that line is a well-formed result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("paper-optimize", "serve-churn", "exec-mixed")
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    dune = shutil.which("dune")
    if dune is None:
        sys.exit("run.py: dune not found on PATH")
    if not os.path.isfile("dune-project"):
        sys.exit("run.py: run from the root of a source checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ".", "./perfbench/bench.exe"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        sys.exit("run.py: build failed")

    cmd = [
        os.path.join("_build", "default", "perfbench", "bench.exe"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
    ]
    try:
        run = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        sys.exit("run.py: benchmark exited with code %d" % run.returncode)
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        ok = False
    if not ok:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.exit("run.py: malformed result line")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
