#!/usr/bin/env python3
"""Build and run one perfbench workload from the root of a checkout.

    python3 perfbench/run.py --workload verify|sweep|serve --seed N \
        --seconds S --trace 0|1

Builds the syscomm library, the syscommd daemon and the perfbench
driver from this tree (CMake, RelWithDebInfo) into $CARGO_TARGET_DIR or
.bench_build, runs the workload in its own process group, and passes
through the driver's JSON result line as the last line of stdout.
Build output and diagnostics go to stderr. Per-run records and traced
spans land in perfbench/out/. Every process started here is stopped
and reaped before exit, also on a timeout or a signal.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest(root):
    """sha256 over the program and benchmark sources, for the record."""
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "out")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def commit_stamp(root):
    try:
        sha = subprocess.run(
            ["git", "-C", root, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
            # Never report the commit of a repository above the checkout.
            env={**os.environ,
                 "GIT_CEILING_DIRECTORIES": os.path.dirname(root)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return f"{sha}+src:{source_digest(root)}"


def build(root, build_dir):
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr, check=True,
        )
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr, check=True,
    )


def reap_group(pgid):
    """SIGKILL whatever is left of the group, then wait until it is gone."""
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


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["verify", "sweep", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sim", "session.h")):
        fail("run from the root of a syscomm checkout (no src/ here)")
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    try:
        build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    out_dir = os.path.join(root, "perfbench", "out")
    work_dir = os.path.join(out_dir, f"work-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)

    cmd = [
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", work_dir,
        "--out-dir", out_dir,
        "--syscommd", os.path.join(build_dir, "syscommd"),
        "--commit", commit_stamp(root),
    ]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                             start_new_session=True, text=True)

    def on_signal(signum, _frame):
        reap_group(child.pid)
        child.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        reap_group(child.pid)
        child.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    reap_group(child.pid)
    shutil.rmtree(work_dir, ignore_errors=True)
    if child.returncode != 0:
        fail(f"driver exited with code {child.returncode}")
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        fail("driver printed no result")
    print(lines[-1])


if __name__ == "__main__":
    main()
