#!/usr/bin/env python3
"""Build and run the PerPos fleet benchmark.

    python3 perfbench/run.py --workload gps_fleet --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and builds the
middleware and the benchmark driver (CMake, Release) into the build
directory: $CARGO_TARGET_DIR when set, else .bench_build. Workload sizes
come from perfbench/workloads.json; per-device epoch counts scale with
--seconds. The driver's last line of output is the JSON result.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# workloads.json sizes are for runs of this many seconds.
REFERENCE_SECONDS = 20.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configure (once) and build the driver; returns its path."""
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        jobs = str(max(1, os.cpu_count() or 1))
        subprocess.run(
            ["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench")


def source_id():
    """Git commit when the checkout is a repository, plus a digest of the
    sources the benchmark builds (a checkout without .git has no sha)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".json", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    sha = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            sha = "unknown"
    return f"{sha} (sources sha256 {digest.hexdigest()[:16]})"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=REFERENCE_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Size overrides for the self-test.
    parser.add_argument("--devices", type=int)
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--corrupt-transcript", action="store_true")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("middleware sources (src/) not found next to perfbench/")
    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; one of {sorted(workloads)}")
    w = workloads[args.workload]

    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    epochs = args.epochs or max(
        1, round(w["epochs_per_device"] * args.seconds / REFERENCE_SECONDS))
    command = [
        binary,
        "--workload", args.workload,
        "--pipeline", w["pipeline"],
        "--seed", str(args.seed),
        "--trace", str(args.trace),
        "--devices", str(args.devices or w["devices"]),
        "--epochs", str(epochs),
        "--rate", str(w["offered_rate"]),
        "--swap-period", str(w["swap_period"]),
        "--outage-share", str(w["outage_share"]),
        "--indoor-every", str(w["indoor_every"]),
        "--particles", str(max(1, w["particles"])),
        "--metrics", "1" if w["metrics"] else "0",
        "--git-sha", source_id(),
        "--out-dir", build_dir(),
    ]
    if args.corrupt_transcript:
        command.append("--corrupt-transcript")
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
