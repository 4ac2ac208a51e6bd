#!/usr/bin/env python3
"""Build and run the krsp path-provisioning benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

The first form builds the benchmark package (release, offline) and runs one
workload in its own process. Its report goes to stderr; the last line of
stdout is one JSON object with the keys "correct", "attempted", "failed" and
"metrics" (end-to-end metrics with --trace 0, per-layer metrics with
--trace 1). The second form runs every workload that way, untraced and then
traced, each in a process of its own, and prints both tables.

The build goes to $CARGO_TARGET_DIR, or .bench_build when it is unset. The
traced run writes its spans there too, under perfbench-spans/.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The workloads BENCHMARK.json lists; the others run by name only (README,
# "Dropped workloads").
WORKLOADS = ["rsp_cold", "krsp_cold"]
RUNNABLE = WORKLOADS + ["hot_wire", "deadline_tail"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(target_dir):
    """Builds the benchmark binary and returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "service", "Cargo.toml")):
        fail(f"no krsp sources next to {HERE}; run from a full checkout", 3)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out", 3)
    except FileNotFoundError:
        fail("cargo not found", 3)
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}", 3)
    return os.path.join(target_dir, "release", "perfbench")


def run_one(binary, target_dir, workload, seed, seconds, trace, capture):
    """Runs one workload in its own process; returns (exit code, stdout)."""
    cmd = [
        binary, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--out-dir", os.path.join(target_dir, "perfbench-spans"),
    ]
    try:
        done = subprocess.run(
            cmd, stdout=subprocess.PIPE if capture else None, text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S}s", 4)
    return done.returncode, done.stdout or ""


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def run_all(binary, target_dir, seed, seconds):
    tables = {}
    for trace in (0, 1):
        for workload in WORKLOADS:
            code, out = run_one(binary, target_dir, workload, seed, seconds, trace, True)
            if code != 0:
                fail(f"{workload} --trace {trace} exited with {code}", code)
            tables.setdefault(trace, {})[workload] = last_json(out)
    for trace, title in ((0, "end-to-end metrics"), (1, "per-layer metrics (traced run)")):
        results = tables[trace]
        names = list(next(iter(results.values()))["metrics"])
        print(f"\n{title}, seed {seed}")
        print(f"{'metric':<32}" + "".join(f"{w:>16}" for w in WORKLOADS) + "  unit")
        for name in names:
            unit = results[WORKLOADS[0]]["metrics"][name]["unit"]
            cells = "".join(f"{results[w]['metrics'][name]['value']:>16.4f}" for w in WORKLOADS)
            print(f"{name:<32}{cells}  {unit}")
        for row in ("attempted", "failed", "correct"):
            print(f"{row:<32}" + "".join(f"{str(results[w][row]):>16}" for w in WORKLOADS))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=RUNNABLE + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be nonnegative", 2)
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    started = time.monotonic()
    binary = build(target_dir)
    print(f"perfbench: built in {time.monotonic() - started:.1f}s", file=sys.stderr)
    if args.workload == "all":
        run_all(binary, target_dir, args.seed, args.seconds)
        return
    code, _ = run_one(binary, target_dir, args.workload, args.seed, args.seconds, args.trace, False)
    sys.exit(code)


if __name__ == "__main__":
    main()
