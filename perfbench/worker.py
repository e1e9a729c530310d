"""Workload process: set up, then run the fixed job list in rounds.

Usage (started by run.py, from the root of a checkout):
  python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE SIZE WORKDIR \
      [--setup-only]

Set-up imports poincarelab and builds the seeded inputs, then prints
``READY``; with ``--setup-only`` the process exits there.  Otherwise it runs
whole rounds of the job list, one job at a time, starting a round only
while the previous round's duration still fits in SECONDS (at least two
rounds).  With TRACE=1 the rounds alternate untraced and traced, starting
untraced.  The last stdout line is one JSON object with a record per job
execution and, when traced, the layer summary.
"""

import json
import os
import resource
import sys
import time

import poincarelab  # noqa: F401  (set-up time includes the package import)
import workloads
from tracing import Tracer


def _cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _merge(total, part):
    for key in ("self_s", "calls", "counts"):
        for name, v in part[key].items():
            total[key][name] = total[key].get(name, 0) + v
    for name, v in part["peaks"].items():
        total["peaks"][name] = max(total["peaks"].get(name, 0.0), v)


def run_round(jobs, cli, rnd, traced, tracer, workdir, summary):
    records = []
    if traced and not cli:
        tracer.install()
    try:
        for i, (name, run, check) in enumerate(jobs):
            trace_path = os.path.join(workdir, f"spans-{rnd}-{i}.json") \
                if traced and cli else None
            cpu, rss, dig, result, numbers = None, None, None, None, None
            c0, t0 = _cpu(), time.perf_counter()
            try:
                result = run(trace_path) if cli else run()
                wall, cpu = time.perf_counter() - t0, _cpu() - c0
                if cli:
                    cpu, rss = result[2], result[3]
                numbers, problems = check(result)
                dig = workloads.digest(numbers)
            except Exception as exc:  # a failed job is counted, not fatal
                problems = [f"{type(exc).__name__}: {exc}"]
            if cpu is None:
                wall, cpu = time.perf_counter() - t0, _cpu() - c0
            result = numbers = None  # free large outputs before the next job
            if trace_path and os.path.exists(trace_path):
                with open(trace_path) as fh:
                    child = json.load(fh)
                _merge(summary, child["summary"])
                summary["main_s"][name] = summary["main_s"].get(name, 0.0) \
                    + child["main_s"]
                summary["spans"].append({"job": name, "round": rnd,
                                         "names": child["names"],
                                         "spans": child["spans"]})
                os.remove(trace_path)
            records.append({"job": name, "round": rnd, "traced": traced,
                            "wall": wall, "cpu": cpu, "rss_kb": rss,
                            "digest": dig, "problems": problems})
    finally:
        if traced and not cli:
            tracer.uninstall()
    return records


def main(argv):
    workload, seed, seconds, trace, size, workdir = argv[:6]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    jobs = workloads.build(workload, seed, workdir, tiny=size == "tiny")
    cli = workload == "cli-readme"
    print("READY", flush=True)
    if "--setup-only" in argv:
        return 0
    tracer = Tracer()
    summary = {"self_s": {}, "calls": {}, "counts": {}, "peaks": {},
               "main_s": {}, "spans": []}
    records, rnd, start, last = [], 0, time.perf_counter(), 0.0
    while True:
        traced = trace and rnd % 2 == 1
        t0 = time.perf_counter()
        records += run_round(jobs, cli, rnd, traced, tracer, workdir, summary)
        last = time.perf_counter() - t0
        rnd += 1
        if rnd >= 2 and time.perf_counter() - start + last > seconds:
            break
    if trace:
        if not cli:
            tracer.measure_allocs()
            _merge(summary, tracer.summary())
            summary["spans"].append({"job": "*", "round": -1,
                                     "names": tracer.names,
                                     "spans": tracer.spans})
        # every span, written once at the end; run.py keeps the file
        with open(os.path.join(workdir, "spans.json"), "w") as fh:
            json.dump(summary.pop("spans"), fh)
        summary["traced_rounds"] = rnd // 2
    print(json.dumps({"records": records, "rounds": rnd,
                      "trace": summary if trace else None}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
