#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  --seed N --seconds S --trace 0|1

The harness (perfbench/*.cc) is compiled together with the repository's
libraries from ../src into .bench_build/perfbench; later runs only
rebuild what changed. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. `--workload all`
runs every workload, each in its own process so each reports its own
peak RSS, and prints one combined line with metrics keyed
"<workload>/<metric>". The exit status is non-zero when the build
fails, a run times out or any output is wrong.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["verified-mix", "saturated-backlog", "durable-fleet", "gate-mix"]
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build the harness; build output goes to stderr."""
    configured = any(os.path.exists(os.path.join(BUILD, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", BUILD]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD, "--parallel", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def run_one(workload, args, capture):
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {workload} timed out", file=sys.stderr)
        return 1, ""
    return proc.returncode, (out or b"").decode()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3
    os.makedirs(OUT, exist_ok=True)
    if args.workload != "all":
        code, _ = run_one(args.workload, args, capture=False)
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, out = run_one(workload, args, capture=True)
        lines = out.rstrip("\n").splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n" if lines else "")
        worst = max(worst, code)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"perfbench: {workload} printed no result", file=sys.stderr)
            return max(worst, 1)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
