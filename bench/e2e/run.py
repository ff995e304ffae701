#!/usr/bin/env python3
"""Builds bench_e2e from this checkout and runs one workload of it.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The build (CMake, Release) goes to $CARGO_TARGET_DIR/e2e, or
.bench_build/e2e when that is unset, relative to the repository root;
later runs rebuild incrementally. bench_e2e's report is printed, and the
last line is one JSON object with the keys correct, attempted, failed and
metrics, where metrics holds exactly the metrics BENCHMARK.json lists:
its end_to_end list with --trace 0, its per_layer list with --trace 1.
Exits non-zero when bench_e2e finds a wrong answer, and without printing
a result when the build fails or the run gives none.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
# bench_e2e exits well within this; a run that does not is killed.
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the ucqn sources are not in " + ROOT + "; nothing to build")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    # Concurrent runs in one checkout share the build; the lock keeps
    # them from compiling over each other.
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "bench", "e2e"),
                          "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target", "bench_e2e",
                      "-j", jobs])
        for step in steps:
            # Build chatter goes to stderr: stdout ends with the result.
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                fail("building bench_e2e failed")
    return os.path.join(build_dir, "bench_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = [m["name"] for m in spec["per_layer" if args.trace == "1" else "end_to_end"]]

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "e2e")
    binary = build(build_dir)
    run_tag = "%s_%d_%s" % (args.workload, args.seed, args.trace)
    try:
        run = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace,
             "--out", os.path.join(build_dir, "results_%s.json" % run_tag),
             "--trace-dir", build_dir],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("bench_e2e did not finish within %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(run.stdout, end="")
        fail("bench_e2e exited %d without a result" % run.returncode)
    print("\n".join(lines[:-1]))
    missing = [name for name in wanted if name not in result["metrics"]]
    if missing:
        fail("bench_e2e did not report " + ", ".join(missing))
    result["metrics"] = {name: result["metrics"][name] for name in wanted}
    print(json.dumps(result), flush=True)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
