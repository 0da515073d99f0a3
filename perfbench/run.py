#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--quick] [--perturb]

Run it from the root of a checkout. It builds the `perfbench` crate in
release mode (into $CARGO_TARGET_DIR, default `.bench_build`), runs the
workload in a process group of its own, and stops that group before it
returns. Standard output ends with one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. The full record of the
run (manifest, calibration, gates, spans) is written next to the build,
under `perfbench-artifacts/`.

It exits non-zero, without a result line, when the build or the run
fails or times out.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["quake_sf5", "exec_sf5", "proc_sf10", "chaos_sf10"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    the sources the benchmark builds."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ["Cargo.lock", "crates", "vendor", "perfbench"]:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else []
        for d, dirs, files in os.walk(base):
            dirs[:] = sorted(x for x in dirs if not x.startswith("."))
            paths += [os.path.join(d, f) for f in sorted(files) if f.endswith((".rs", ".toml", ".lock"))]
        for p in paths:
            digest.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def stop_group(pgid):
    """Kills whatever is left of the run's process group and waits until
    the group is empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(100):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    ap.add_argument("--quick", action="store_true", help="small meshes and short phases, for the benchmark's tests")
    ap.add_argument("--perturb", action="store_true", help="damage one checked output, to prove the checks count it")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be non-negative and --seconds positive")

    start = time.monotonic()
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", "perfbench/Cargo.toml"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if build.returncode != 0:
        fail("build failed")

    # The proc transport puts its Unix sockets under TMPDIR; a short path
    # relative to the checkout keeps them inside it and under the socket
    # path limit.
    run_dir = os.path.join(target, "perfbench-run", str(os.getpid()))
    artifacts = os.path.join(target, "perfbench-artifacts")
    os.makedirs(run_dir, exist_ok=True)
    os.makedirs(artifacts, exist_ok=True)
    env["TMPDIR"] = os.path.relpath(run_dir, ROOT)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}"
    cmd = [
        os.path.join(target, "release", "perfbench"), "workload",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--out", os.path.join(artifacts, name + ".json"), "--commit", source_id(),
    ]
    cmd += ["--quick"] * args.quick + ["--perturb"] * args.perturb
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, start_new_session=True)
    try:
        out, err = child.communicate(timeout=max(10.0, RUN_TIMEOUT_S - (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        stop_group(child.pid)
        child.communicate()
        shutil.rmtree(run_dir, ignore_errors=True)
        fail("run timed out")
    stop_group(child.pid)
    shutil.rmtree(run_dir, ignore_errors=True)
    with open(os.path.join(artifacts, name + ".stderr.log"), "w") as f:
        f.write(err)
    if child.returncode != 0:
        sys.stderr.write(err[-4000:])
        fail(f"run exited with {child.returncode}")
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("run printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
