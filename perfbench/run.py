#!/usr/bin/env python3
"""Build and run the controller benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check

Builds perfbench/bench.exe (release profile, build directory
.bench_build/dune), runs it with the given arguments and forwards its
output; the last line printed is the result object. Each result is also
appended, with its provenance stamp, to perfbench/results/trajectory.jsonl.
Exits non-zero without a result line when the build or the run fails.
"""

import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build", "dune")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
TRAJECTORY = os.path.join("perfbench", "results", "trajectory.jsonl")
TIMEOUT_S = 175


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile("dune-project"):
        fail("no dune-project here: run from the root of a checkout")
    if not shutil.which("dune"):
        fail("dune not found")
    os.makedirs(BUILD_DIR, exist_ok=True)
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
           "./perfbench/bench.exe"]
    # no shared dune cache: the build reads and writes only the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def git_rev():
    try:
        r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], capture_output=True, text=True,
                           timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run(args):
    env = dict(os.environ, PERFBENCH_REV=git_rev())
    # own session, so a timeout can stop the daemon processes too
    p = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE, env=env, text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail("benchmark timed out")
    finally:
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return p.returncode, out


def main():
    args = sys.argv[1:]
    build()
    code, out = run(args)
    lines = out.rstrip("\n").split("\n")
    if args == ["--self-check"]:
        sys.stdout.write(out)
        sys.exit(code)
    result = None
    if code == 0 and len(lines) >= 2:
        try:
            result = json.loads(lines[-1])
            stamp = json.loads(lines[-2])
        except ValueError:
            result = None
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("benchmark exited with %d and no result" % code)
    sys.stdout.write(out)
    os.makedirs(os.path.dirname(TRAJECTORY), exist_ok=True)
    with open(TRAJECTORY, "a") as f:
        f.write(json.dumps({"provenance": stamp, "result": result}, sort_keys=True) + "\n")
    sys.exit(0)


if __name__ == "__main__":
    main()
