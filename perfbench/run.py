#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the program and the benchmark binary
from source (CMake, Release) into $CARGO_TARGET_DIR (default .bench_build),
runs one measurement in a fresh temporary directory inside that build
tree, checks its result line against BENCHMARK.json and prints it. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. METRICS.md defines every metric.

Exits non-zero without printing a result when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("massive_vote", "wideband_masked", "multiuser_maxmin",
             "pressd_open_loop")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures once, then lets CMake rebuild whatever changed."""
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "cyclebench",
                  "pressd", "-j", jobs])
    with open(log, "a") as f:
        for cmd in steps:
            if subprocess.call(cmd, stdout=f, stderr=subprocess.STDOUT) != 0:
                sys.stderr.write("perfbench: build failed, see %s\n" % log)
                return False
    return True


def run(out, args):
    """Runs the binary in its own session and a temporary directory, so
    the pressd daemons it starts, their sockets and any flight dumps stay
    inside the build tree and are gone afterwards."""
    runs = os.path.join(out, "runs")
    os.makedirs(runs, exist_ok=True)
    cwd = tempfile.mkdtemp(prefix="run-", dir=runs)
    cmd = [os.path.join(out, "cyclebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--pressd", os.path.join(out, "pressd")]
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = ""
        sys.stderr.write("perfbench: run timed out\n")
    finally:
        # Anything still in the run's process group (a daemon of a crashed
        # run) is killed; the binary itself is reaped.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(cwd, ignore_errors=True)
    return proc.returncode, stdout


def contract_problem(result, trace):
    """Why the result line breaks BENCHMARK.json's contract, or None."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        wanted = json.load(f)["per_layer" if trace else "end_to_end"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ from the contract"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            return "%s must be a whole number" % key
    if result["attempted"] < 1:
        return "nothing was attempted"
    names = {m["name"] for m in wanted}
    if set(result["metrics"]) != names:
        return "metrics differ from BENCHMARK.json: %s" % ", ".join(
            sorted(set(result["metrics"]) ^ names))
    for m in wanted:
        if result["metrics"][m["name"]].get("unit") != m["unit"]:
            return "metric %s is not in %s" % (m["name"], m["unit"])
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    out = build_dir()
    if not build(out):
        return 1
    code, stdout = run(out, args)
    lines = [line for line in stdout.splitlines() if line.strip()]
    if code != 0 or not lines:
        sys.stderr.write("perfbench: cyclebench exited with %s\n" % code)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write("perfbench: the last line is not a JSON result\n")
        return 1
    problem = contract_problem(result, args.trace == 1)
    if problem:
        sys.stderr.write("perfbench: %s\n" % problem)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
