#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload decompose-ldd --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Each form first builds perfbench/bench.exe with dune (only the library
and the benchmark, into the checkout's _build). The first runs one
workload; the last line of its output is the JSON result. The second
runs every workload of BENCHMARK.json in turn, each printing its metrics
by name and unit. --smoke runs every workload on a tiny graph in both
modes and checks that the metric names printed match BENCHMARK.json and
that no operation failed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
RUN_TIMEOUT_S = 170


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet", "./perfbench/bench.exe"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if proc.returncode != 0 or not os.path.exists(EXE):
        sys.exit("perfbench: build failed; run from the root of a full checkout")


def run_bench(args, capture):
    cmd = [EXE, "--nproc", str(len(os.sched_getaffinity(0)))] + args
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            timeout=RUN_TIMEOUT_S,
            stdout=subprocess.PIPE if capture else None,
            text=True,
        )
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit("perfbench: bench.exe exited with code %d" % proc.returncode)
    return proc.stdout


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def smoke():
    spec = load_spec()
    problems = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = run_bench(
                ["--workload", w["name"], "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--tiny"],
                capture=True,
            )
            result = json.loads(out.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            tag = "%s --trace %d" % (w["name"], trace)
            if got != want:
                problems.append("%s: metrics differ from BENCHMARK.json %s: %s"
                                % (tag, key, sorted(set(got.items()) ^ set(want.items()))))
            if result["failed"] != 0 or not result["correct"] or result["attempted"] < 1:
                problems.append("%s: %d of %d operations failed"
                                % (tag, result["failed"], result["attempted"]))
            print("%-34s attempted=%d failed=%d" % (tag, result["attempted"], result["failed"]))
    for p in problems:
        print("FAIL " + p)
    print("smoke: %s" % ("ok" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload; default: all of BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    build()
    if args.smoke:
        return smoke()
    names = [args.workload] if args.workload else [w["name"] for w in load_spec()["workloads"]]
    for name in names:
        run_bench(
            ["--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture=False,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
