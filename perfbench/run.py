#!/usr/bin/env python3
"""Build and run the scan benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload sp_bulk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

The first call configures and builds the library and the benchmark under
.bench_build/perfbench (later calls only check that the build is current).
The benchmark's last line of stdout is the result as one JSON object; build
output goes to stderr. --smoke runs every workload briefly, with and without
tracing, and checks that every metric named in BENCHMARK.json is printed with
its unit and that no call failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORKLOADS = ["sp_bulk", "mps_overlap", "mn_sync", "plan_sweep"]


def build():
    """Configure once, then bring the benchmark up to date. Returns its path."""
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.abspath(tmp))
    configured = any(os.path.exists(os.path.join(BUILD_DIR, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
                       stdout=sys.stderr, env=env, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "perfbench", "-j", jobs],
                   stdout=sys.stderr, env=env, check=True)
    return os.path.join(BUILD_DIR, "perfbench")


def git_sha():
    # Only ask git inside a git checkout: elsewhere it would search the
    # parent directories.
    if not os.path.isdir(".git"):
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def bench_cmd(exe, workload, seed, seconds, trace):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--git-sha", git_sha()]
    if trace:
        cmd += ["--spans-out", os.path.join(
            BUILD_DIR, "spans-%s-seed%s.json" % (workload, seed))]
    return cmd


def smoke(exe):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ok = True
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = bench_cmd(exe, workload, 1, 1, trace) + ["--smoke"]
            r = subprocess.run(cmd, capture_output=True, text=True)
            lines = r.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = None
            problems = []
            if r.returncode != 0 or result is None:
                problems.append("exit %d, no result: %s" %
                                (r.returncode, r.stderr.strip()[-500:]))
            else:
                want = {m["name"]: m["unit"] for m in spec[key]}
                got = {k: v.get("unit") for k, v in result["metrics"].items()}
                if got != want:
                    problems.append("metrics %s, expected %s" % (got, want))
                if result["failed"] != 0 or not result["correct"]:
                    problems.append("failed_frac %d/%d, correct=%s" % (
                        result["failed"], result["attempted"],
                        result["correct"]))
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print("smoke %-12s trace=%d: %s" % (workload, trace, status))
            ok = ok and not problems
    print("smoke: %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    if not args.smoke and args.workload is None:
        p.error("--workload is required")
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    if args.smoke:
        return smoke(exe)
    sys.stdout.flush()
    return subprocess.run(bench_cmd(exe, args.workload, args.seed,
                                   args.seconds, args.trace)).returncode


if __name__ == "__main__":
    sys.exit(main())
