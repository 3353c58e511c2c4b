#!/usr/bin/env python3
"""The repository benchmark (perfbench/README.md).

Builds spi_served and the harness from source, prints the host
fingerprint, runs one workload and prints its result as the last line:

    python3 perfbench/run.py --workload serve-small --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run it from the repository root. Build output goes to stderr; the build
directory is $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
"""
import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("serve-small", "serve-heavy")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
HARNESS_TIMEOUT_S = 170
TARGETS = ("perfbench_harness", "spi_served", "perfbench_stats_test")


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run_build_step(cmd):
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")


def build(root, build_dir):
    if not (build_dir / "CMakeCache.txt").is_file():
        run_build_step(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    run_build_step(["cmake", "--build", str(build_dir), "-j", jobs, "--target", *TARGETS])


def cache_value(build_dir, key):
    try:
        for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return ""


def source_digest(root):
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt", ".py"):
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint(root, build_dir):
    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = cache_value(build_dir, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True, text=True)
        compiler = version.stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    commit = "unavailable: the checkout is not a git repository"
    if (root / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True)
        if git.returncode == 0:
            commit = git.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "compiler": compiler,
        "build_type": cache_value(build_dir, "CMAKE_BUILD_TYPE"),
        "git_commit": commit,
        "source_sha256": source_digest(root),
        "kernel": platform.release(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the arithmetic self-tests only")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "serve" / "plan_server.hpp").is_file() or \
            not (root / "tools" / "spi_served.cpp").is_file():
        log("src/ and tools/ not found: run from the root of an SPI source checkout")
        return 2
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    build(root, build_dir)

    if args.selftest:
        return subprocess.run([str(build_dir / "perfbench_stats_test")]).returncode
    if args.workload is None:
        parser.error("--workload is required")

    cmd = [str(build_dir / "perfbench_harness"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--served", str(build_dir / "spi_served"), "--workdir", str(build_dir)]
    try:
        proc = subprocess.run(cmd, cwd=build_dir, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"harness exceeded {HARNESS_TIMEOUT_S} s")
        return 3
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        log(f"harness failed with exit code {proc.returncode}")
        return proc.returncode or 1
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        log(f"malformed result line: {lines[-1]}")
        return 1
    print(json.dumps({"fingerprint": fingerprint(root, build_dir)}))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
