#!/usr/bin/env python3
"""Build fgv from source and run one benchmark workload.

    python3 perfbench/run.py --workload cold-compile --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The build goes to _build/ (dune's
default), scratch files to .perfbench_work/; both stay inside the
checkout.  The last stdout line is the benchmark's JSON result.
`--workload all` runs the three workloads in turn and ends with one
combined result whose metric names are prefixed by the workload.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["cold-compile", "edit-loop", "native-exec"]
WORK = ".perfbench_work"
EXE = os.path.join("_build", "default", "perfbench", "fgvbench.exe")
FGVC = os.path.join("_build", "default", "bin", "fgvc.exe")


def build():
    cmd = ["dune", "build", "--root", ".", "perfbench/fgvbench.exe", "bin/fgvc.exe"]
    # no shared build cache: the build writes only under _build/
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    if r.returncode != 0:
        sys.exit("perfbench: build failed (%s)" % " ".join(cmd))


def run_one(args, workload):
    """Run one workload; returns (exit code, parsed result or None)."""
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    env = dict(os.environ, TMPDIR=os.path.abspath(WORK))
    cmd = [EXE, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--fgvc", FGVC, "--work", WORK]
    # its own process group, so a timeout also stops the service child
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                         env=env, text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        return 3, None
    finally:
        try:  # nothing it started may outlive it
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(WORK, ignore_errors=True)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return p.returncode or 3, None
    return p.returncode, result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("bin", "fgvc.ml")):
        sys.exit("perfbench: run from the root of an fgv checkout")
    build()
    if args.workload != "all":
        code, result = run_one(args, args.workload)
        if result is None:
            sys.exit("perfbench: %s produced no result (exit %d)" % (args.workload, code))
        print(json.dumps(result))
        sys.exit(code)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in WORKLOADS:
        code, result = run_one(args, w)
        if result is None:
            sys.exit("perfbench: %s produced no result (exit %d)" % (w, code))
        print(json.dumps({"workload": w, **result}))
        worst = max(worst, code)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][w + "/" + name] = m
    print(json.dumps(combined))
    sys.exit(worst)


if __name__ == "__main__":
    main()
