#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload <serve_cold|serve_warm|route_sim|certify>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selfcheck

Run from the repository root. The first call configures and builds the
library, the bfly_serviced daemon and the perfbench client in a Release
tree under .bench_build/ (honouring CARGO_TARGET_DIR when set); later
calls rebuild incrementally. Build output goes to stderr, so the last
line of stdout is the client's JSON result. Exits non-zero, without a
result, when the source tree or the build is missing or broken.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("serve_cold", "serve_warm", "route_sim", "certify")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"no source tree to build: {needed} is missing")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs,
                  "--target", "perfbench", "bfly_serviced"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=840)
        if done.returncode != 0:
            fail(f"build step failed ({done.returncode}): {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true",
                    help="show that every output check rejects a corrupted "
                         "value, then exit")
    args = ap.parse_args()
    if not args.selfcheck and args.workload is None:
        ap.error("--workload is required")
    if not 1 <= args.seconds <= 120:
        ap.error("--seconds must be within 1..120")

    bdir = build_dir()
    build(bdir)
    client = os.path.join(bdir, "perfbench")
    daemon = os.path.join(bdir, "repo", "src", "service", "bfly_serviced")
    for exe in (client, daemon):
        if not os.access(exe, os.X_OK):
            fail(f"build produced no executable {exe}")
    work = os.path.join(os.path.dirname(bdir), "perfbench-work")
    os.makedirs(work, exist_ok=True)

    cmd = [client, "--daemon", daemon, "--work-dir", work]
    if args.selfcheck:
        cmd.append("--selfcheck")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=170)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    sys.exit(code)


if __name__ == "__main__":
    main()
