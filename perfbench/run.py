#!/usr/bin/env python3
"""GranLog's repository benchmark: builds the harness and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload {paper,batch,session,churn} \\
        --seed N --seconds S --trace {0,1}

The first run configures and builds perfbench/ (which compiles ../src and
../tools/granlogd.cpp) into .bench_build/perfbench with CMake; later runs
rebuild only what changed.  The harness prints notes, then this script
prints one JSON line with exactly the metrics BENCHMARK.json names: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1
(a layer the workload does not run reports 0).  A build or harness
failure exits non-zero without a result line.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("paper", "batch", "session", "churn")
# A run takes about --seconds plus set-up and checks; this only catches a
# hang.
HARNESS_TIMEOUT_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("the GranLog sources (src/) are not next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j",
                  str(len(os.sched_getaffinity(0)))])
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(cmd))


def stop_group(pgid):
    """Kills whatever is left in the harness's process group and waits
    until the group is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_harness(args, tmp):
    cmd = [os.path.join(BUILD, "perfbench"),
           f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--tmp={tmp}", "--granlogd=" + os.path.join(BUILD, "granlogd")]
    # Its own session, so the daemon it spawns can be stopped with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        stop_group(proc.pid)
        die(f"the harness did not finish within {HARNESS_TIMEOUT_S} s")
    stop_group(proc.pid)
    if proc.returncode != 0:
        sys.stdout.write(out)
        die(f"the harness exited with {proc.returncode}")
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be at least 0 and --seconds at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()

    # Relative to the root, the harness's working directory: that keeps
    # socket paths under the AF_UNIX length limit wherever the checkout is.
    tmp = os.path.join(".bench_build", "tmp", f"run-{os.getpid()}")
    os.makedirs(os.path.join(ROOT, tmp), exist_ok=True)
    try:
        out = run_harness(args, tmp)
    finally:
        shutil.rmtree(os.path.join(ROOT, tmp), ignore_errors=True)

    lines = out.splitlines()
    if not lines:
        die("the harness printed nothing")
    raw = json.loads(lines[-1])
    section = spec["per_layer" if args.trace else "end_to_end"]
    extra = sorted(set(raw["metrics"]) - {m["name"] for m in section})
    if extra:
        die("metrics BENCHMARK.json does not name: " + ", ".join(extra))
    metrics = {}
    for m in section:
        got = raw["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                die(f"the harness did not report {m['name']}")
            got = {"value": 0.0, "unit": m["unit"]}  # a layer not run here
        if got["unit"] != m["unit"]:
            die(f"{m['name']}: unit {got['unit']}, BENCHMARK.json says "
                f"{m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
