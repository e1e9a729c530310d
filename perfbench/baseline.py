"""Run the benchmark over several seeds and summarise each metric.

Usage, from the root of a checkout:
  python3 perfbench/baseline.py [--out perfbench/BENCH_baseline.json]

For every workload it runs ``run.py --trace 0`` once per seed (seeds 1..10)
and reports, per end-to-end metric, the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) / median
next to the metric's bound in BENCHMARK.json; a spread of a third of the
bound or more is flagged.  Then it makes two traced runs per workload
(seeds 1 and 2) and lists the counts that differ between them.  The
summary, with machine and version information, goes to --out when given.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = range(1, 11)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                         timeout=600).stdout
    return json.loads(out.strip().splitlines()[-1])


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    versions = subprocess.run(
        [sys.executable, "-c", "import numpy, scipy; "
         "print(numpy.__version__, scipy.__version__)"],
        stdout=subprocess.PIPE, text=True, check=True).stdout.split()
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": versions[0], "scipy": versions[1],
            "platform": platform.platform()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"machine": machine(), "run_seconds": bench["run_seconds"],
              "seeds": list(SEEDS), "workloads": {}}
    for wl in (w["name"] for w in bench["workloads"]):
        runs = [run_once(wl, s, bench["run_seconds"], 0) for s in SEEDS]
        entry = {"attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "correct": all(r["correct"] for r in runs), "end_to_end": {}}
        print(f"== {wl}: {len(runs)} runs, failed {entry['failed']}/"
              f"{entry['attempted']}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else 0.0
            entry["end_to_end"][name] = {
                "unit": runs[0]["metrics"][name]["unit"], "median": med,
                "q1": q1, "q3": q3, "spread": spread, "bound": bound,
                "values": values}
            flag = "" if spread < bound / 3 else "  <-- spread"
            print(f"  {name:<14} median {med:<12.6g} spread {spread:7.4f}"
                  f"  bound/3 {bound / 3:.4f}{flag}")
        # two seeds: the counts must agree exactly, times need not
        traced = [{k: v["value"] for k, v in
                   run_once(wl, s, bench["run_seconds"], 1)
                   ["metrics"].items()} for s in (1, 2)]
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        differ = [k for k, u in units.items() if u != "s"
                  and k != "trace.covered_share"
                  and traced[0][k] != traced[1][k]]
        entry["per_layer_seed1"] = traced[0]
        entry["per_layer_counts_differ_seed1_seed2"] = differ
        print(f"  traced: counts differing between seeds 1, 2: {differ}")
        report["workloads"][wl] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
