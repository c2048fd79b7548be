#!/usr/bin/env python3
"""Builds and runs the outside-in benchmark of the live striped-I/O path.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                # every workload, untraced and traced
    python3 perfbench/run.py --self-test    # the benchmark's own tests

Run from anywhere; the build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench under the repository root) and is configured on first
use. With --workload the last line of standard output is the result as one
JSON object; the exit status is nonzero on a failed build, a failed or
byte-mismatched operation, or a traced count that differs from the untraced
run. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["stream_1m", "small_rand_4k", "degraded_rs42"]
RUN_TIMEOUT_S = 160  # per run, leaving room for the up-to-date build check


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(target):
    """Configures (once) and builds `target`; returns its path or None."""
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(out), "--target", target, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print(f"perfbench: build step failed: {' '.join(step)}", file=sys.stderr)
            return None
    return out / target


def source_id():
    """The git commit, or a digest of the sources when there is no git."""
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; echoes its output and returns (exit code, result)."""
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--git-sha", source_id()]
    if trace:
        spans = build_dir() / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        command += ["--spans-out", str(spans / f"{workload}.jsonl")]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish in time", file=sys.stderr)
        return 1, None
    lines = done.stdout.rstrip("\n").split("\n")
    result = None
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        pass
    if result is None:
        # No result line: pass the output on, but never as a result.
        sys.stderr.write(done.stdout)
        return done.returncode or 1, None
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode, result


def run_all(binary, seed, seconds):
    status = 0
    table = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run_one(binary, workload, seed, seconds, trace)
            status = status or code
            if result is not None:
                table.append((workload, trace, result))
    print("\nsummary (end-to-end from untraced runs):")
    for workload, trace, result in table:
        if trace == 0:
            metrics = "  ".join(f"{name} {m['value']:.4g} {m['unit']}"
                                for name, m in result["metrics"].items())
            print(f"  {workload:14s} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}  {metrics}")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        binary = build("perfbench_test")
        if binary is None:
            return 2
        return subprocess.run([str(binary)], cwd=ROOT).returncode

    binary = build("swift_perfbench")
    if binary is None:
        return 2
    if args.workload is None:
        return run_all(binary, args.seed, args.seconds)
    code, _ = run_one(binary, args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
