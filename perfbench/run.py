#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench/perfbench.cc).

Run from the root of a checkout:

    python3 perfbench/run.py --workload multirel_k3 --seed 1 --seconds 40 --trace 0

The perfbench binary is built from source into $CARGO_TARGET_DIR (default
.bench_build) with CMake in Release mode; later runs reuse the build.
The output is a provenance line, the binary's human-readable summary and,
as the last line, one JSON object with the keys correct, attempted,
failed and metrics. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 175


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures (once) and builds the perfbench binary; returns its path."""
    env = dict(os.environ, TMPDIR=str(build_dir / "tmp"))
    (build_dir / "tmp").mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout ends with the result.
            done = subprocess.run(cmd, stdout=sys.stderr, env=env)
        except OSError as e:
            die(f"cannot run {cmd[0]}: {e}")
        if done.returncode != 0:
            die(f"build step failed: {' '.join(cmd)}")
    return build_dir / "perfbench"


def cache_value(build_dir, key):
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def source_digest():
    """SHA-256 over the sources perfbench is built from."""
    h = hashlib.sha256()
    files = sorted(p for d in (ROOT / "src", BENCH_DIR)
                   for p in d.rglob("*") if p.is_file())
    files += [ROOT / "bench" / "workloads.h", ROOT / "bench" / "workloads.cc"]
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, build_dir):
    compiler = cache_value(build_dir, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "compiler": version,
        "build_type": cache_value(build_dir, "CMAKE_BUILD_TYPE"),
        "commit": commit,
        "source_sha256": source_digest(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    for needed in ("src/core/verifier.h", "bench/workloads.cc"):
        if not (ROOT / needed).is_file():
            die(f"{needed} not found under {ROOT}: run from a full checkout")

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir.resolve())
    print("provenance: " + json.dumps(provenance(args, build_dir)),
          flush=True)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--oracle", str(BENCH_DIR / "oracle")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"perfbench exceeded {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        die(f"perfbench exited with status {done.returncode}")
    lines = done.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        die("perfbench printed no result line")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
