#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark (perfbench/CMakeLists.txt: the vlcsa library,
vlcsa_serve, vlcsa_sweep and the perfbench binary) from this checkout's
sources, then runs one workload and relays its output.  The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload mc-gauss-n64 --seed 1 --seconds 10 --trace 0

--trace 0 prints every end-to-end metric, --trace 1 every per-layer metric
(and writes the spans to <build>/traces/).  Everything the run writes stays
under the build directory (.bench_build, or $CARGO_TARGET_DIR when set).
README.md in this directory documents the workloads and metrics.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["mc-uniform-n512", "mc-gauss-n64", "svc-hit", "sweep-cold", "sweep-warm"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
TARGETS = ["perfbench", "vlcsa_serve", "vlcsa_sweep"]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out_dir, env):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no repository sources next to perfbench/ (missing CMakeLists.txt)")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs, "--target"] + TARGETS)
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def run(argv, env):
    # A session of its own, so a timeout takes the daemon and sweep children
    # down with the benchmark binary.
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(stdout.decode())
    sys.stdout.flush()
    if child.returncode != 0:
        fail("perfbench exited %d" % child.returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test scale: small inputs, short loops")
    parser.add_argument("--fault", choices=["corrupt-expected"],
                        help="corrupt the expected outputs to show the correctness gate fires")
    args = parser.parse_args()

    out_dir = build_dir()
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    build(out_dir, env)

    traces = os.path.join(out_dir, "traces")
    os.makedirs(traces, exist_ok=True)
    argv = [
        os.path.join(out_dir, "perfbench"),
        "--workload=" + args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%r" % args.seconds,
        "--trace=%d" % args.trace,
        "--bin-dir=" + os.path.join(out_dir, "vlcsa", "examples"),
        "--work-dir=" + os.path.join(out_dir, "work", "%s-%d" % (args.workload, os.getpid())),
        "--trace-out=" + os.path.join(traces, "%s-seed%d.jsonl" % (args.workload, args.seed)),
    ]
    if args.tiny:
        argv.append("--tiny")
    if args.fault:
        argv.append("--fault=" + args.fault)
    run(argv, env)


if __name__ == "__main__":
    main()
