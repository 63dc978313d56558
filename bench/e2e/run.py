#!/usr/bin/env python3
"""adrec-e2e: build and run the end-to-end benchmark of adrecd.

Run from the repository root:

  python3 bench/e2e/run.py --workload NAME --seed N [--trace 0|1]
      One run. --trace 0 (the default) is the gated wire run; --trace 1
      is the traced run, which prints the per-layer metrics and writes
      build-bench/out/NAME.trace.json. Every metric is printed by name
      with its unit; the last stdout line is the JSON result. The exit
      status is not 0 when a reply fails validation. A run measures for
      run_seconds of BENCHMARK.json; --seconds, if given, must equal it.
  python3 bench/e2e/run.py --smoke [--workload NAME] [--trace 0|1]
      A quick check of every workload (or one) with three 1 s rounds.
  python3 bench/e2e/run.py --repeat N [--workload NAME] [--seed N] [--trace 0|1]
      N runs per workload on seeds N, N+1, ...; prints each metric's
      median, quartiles, spread (quartile distance over the median) and
      range (max - min over the median), and flags a spread over the
      metric's bound in BENCHMARK.json.

The first call configures and builds build-bench/ (CMake, Release); later
calls rebuild only what changed. Build output goes to stderr.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-bench")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            sys.exit("adrec-e2e: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        sys.exit("adrec-e2e: build failed")


def command(workload, seed, seconds, trace, smoke):
    tool = "adrec_e2e_trace" if trace else "adrec_e2e"
    cmd = [os.path.join(BUILD, tool),
           "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%d" % seconds,
           "--adrecd=" + os.path.join(BUILD, "adrecd"),
           "--work=" + os.path.join(BUILD, "run")]
    if trace:
        cmd.append("--out=" + os.path.join(BUILD, "out"))
    return cmd + (["--smoke"] if smoke else [])


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def repeat(args, bench):
    workloads = [args.workload] if args.workload else \
        [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound")
              for m in bench["end_to_end"] + bench["per_layer"]}
    ok = True
    for workload in workloads:
        values = {}
        for seed in range(args.seed, args.seed + args.repeat):
            run = subprocess.run(
                command(workload, seed, bench["run_seconds"], args.trace,
                        args.smoke),
                stdout=subprocess.PIPE, text=True)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                print("%s seed %d: exit %d" % (workload, seed, run.returncode))
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"] and result["failed"] == 0
            print("%s seed %d: correct=%s attempted=%d failed=%d" % (
                workload, seed, result["correct"], result["attempted"],
                result["failed"]), flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("%s: %d runs" % (workload, args.repeat))
        print("  %-28s %12s %12s %12s %7s %7s %6s" % (
            "metric", "median", "q1", "q3", "spread", "range", "bound"))
        for name, v in values.items():
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            width = (max(v) - min(v)) / abs(med) if med else float("inf")
            bound = bounds.get(name)
            flag = " OVER" if bound is not None and spread > bound else ""
            print("  %-28s %12.4f %12.4f %12.4f %6.1f%% %6.1f%% %6s%s" % (
                name, med, q1, q3, 100 * spread, 100 * width,
                "-" if bound is None else "%g" % bound, flag), flush=True)
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--repeat", type=int, default=0)
    args = p.parse_args()
    bench = spec()
    seconds = bench["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        p.error("--seconds must be run_seconds of BENCHMARK.json, %d" % seconds)
    build()
    if args.repeat > 0:
        sys.exit(repeat(args, bench))
    if args.smoke and not args.workload:
        failed = 0
        for w in bench["workloads"]:
            cmd = command(w["name"], args.seed, seconds, args.trace, True)
            failed += subprocess.run(cmd).returncode != 0
        sys.exit(1 if failed else 0)
    if not args.workload:
        p.error("--workload is required")
    sys.exit(subprocess.run(command(args.workload, args.seed, seconds,
                                    args.trace, args.smoke)).returncode)


if __name__ == "__main__":
    main()
