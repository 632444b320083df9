#!/usr/bin/env python3
"""Build and run one benchmark run (see BENCHMARK.json and LEDGER.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test

Run from the repository root.  The benchmark is a dune project of its
own (perfbench/src).  It is built together with the repository's lib/
and bin/ in a workspace assembled under .bench_build/ws (release
profile), which gives both `lfdict` and `lfbench`.  Then
`lfbench.exe` runs; its last stdout line is the JSON result.  `--test`
runs the benchmark's own tests instead.  Exits non-zero without a result
when the sources are missing or do not build.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WS = os.path.join(BUILD, "ws")
SRC = os.path.join(ROOT, "perfbench", "src")
# Workspace directory -> where its sources come from.
PARTS = {"lib": os.path.join(ROOT, "lib"), "bin": os.path.join(ROOT, "bin"),
         "perfbench": SRC}


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def assemble():
    """Refresh the workspace from the sources.  copy2 keeps mtimes, so
    dune rebuilds only what changed."""
    for name, src in PARTS.items():
        dst = os.path.join(WS, name)
        shutil.rmtree(dst, ignore_errors=True)
        shutil.copytree(src, dst, copy_function=shutil.copy2,
                        ignore=shutil.ignore_patterns("dune-project"))
    shutil.copy2(os.path.join(SRC, "dune-project"), os.path.join(WS, "dune-project"))


def dune(*args):
    env = dict(os.environ, DUNE_CACHE="disabled")
    return subprocess.run(["dune", *args, "--root", WS, "--profile", "release"],
                          cwd=WS, env=env, stdout=subprocess.DEVNULL).returncode


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--test", action="store_true")
    args = ap.parse_args()
    if not args.test and (args.workload is None or args.seed is None
                          or args.seconds is None):
        ap.error("--workload, --seed and --seconds are required")

    needed = [os.path.join(SRC, "dune-project"), os.path.join(ROOT, "bin", "lfdict.ml"),
              os.path.join(ROOT, "lib", "svc", "wire.ml")]
    missing = [os.path.relpath(p, ROOT) for p in needed if not os.path.exists(p)]
    if missing:
        fail("not a repository checkout, missing: " + ", ".join(missing), 2)

    assemble()
    if args.test:
        sys.exit(0 if dune("test") == 0 else 3)
    if dune("build", "./bin/lfdict.exe", "./perfbench/lfbench.exe") != 0:
        fail("build failed", 3)

    out = os.path.join(BUILD, "perfbench-out")
    os.makedirs(out, exist_ok=True)
    exe = os.path.join(WS, "_build", "default")
    bench = subprocess.run(
        [os.path.join(exe, "perfbench", "lfbench.exe"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--server", os.path.join(exe, "bin", "lfdict.exe"),
         "--out", out],
        cwd=ROOT)
    sys.exit(bench.returncode)


if __name__ == "__main__":
    main()
