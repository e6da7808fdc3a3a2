#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve_snapshot --seed 1 --seconds 10 --trace 0

The RegHD library and the harness are built from source into .bench_build
(or $CARGO_TARGET_DIR when set) on first use and incrementally after that;
build output goes to stderr. The harness's stdout is passed through, so the
last line is the result object: {"correct", "attempted", "failed", "metrics"}.
Exits non-zero, without a result line, when the sources are missing, the
build fails, the run fails, or the run exceeds its time limit.
"""
import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("serve_snapshot", "serve_tenants", "train_sharded")
RUN_TIMEOUT_S = 170
# Inputs of the build, hashed into the run record's "commit" field: the
# checkout the benchmark runs in is not a git repository.
SOURCE_DIRS = ("src", "bench", "perfbench")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def source_digest():
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for d in SOURCE_DIRS:
        files += sorted(p for p in (ROOT / d).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"RegHD sources not found under {ROOT}; run from a full checkout")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per build dir
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1),
                      "--target", "perfbench", "perfbench_unit"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(cmd))
    return out / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny data sizes, for the benchmark's own tests")
    args = parser.parse_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_digest()]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        spans = build_dir() / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}_{args.seed}.jsonl")]

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"harness exited with code {proc.returncode}")
    try:
        json.loads(lines[-1])
    except ValueError:
        fail("harness printed no result line")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
