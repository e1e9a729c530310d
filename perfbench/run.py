"""poincarelab benchmark: one workload, one seed, end to end or traced.

Usage, from the root of a checkout:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up is timed five times, each from spawning a fresh interpreter to
the package imported and the seeded inputs built; the last of those
interpreters then runs the workload (see worker.py) for about S seconds.
With --trace 0 the last stdout line reports every end-to-end metric of
BENCHMARK.json; with --trace 1 every per-layer metric.  The lines before
it are a readable table and one digest per job, so two commits can be
checked for identical results.  A traced run also writes all its spans to
.perfbench_out/.  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

from tracing import MODULES, span_cost

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cli-readme", "weight-constants", "trees-and-series")
SETUPS = 5
TIME_LIMIT = 170.0
# job_s.tail: a percentile fixed per workload, so that two commits, or two
# runs with different round counts, report the same one.  At the baseline
# sample counts (16, 20 and 70-84 job samples) it leaves at least ten
# samples beyond it; it is the highest such percentile for the first two,
# and for trees-and-series the highest that stays inside one cluster of
# similar jobs whatever the round count.  The table line states how many
# samples lie beyond it in each run.
TAIL_PERCENTILE = {"cli-readme": 37.5, "weight-constants": 50.0,
                   "trees-and-series": 75.0}
CLI_JOBS = ("constants-power", "constants-file", "cz", "functional-check",
            "poincare", "sharpness", "rdf", "report")
REPORT_SIZES = ("1d-d8", "1d-d10", "2d-d6", "2d-d7", "3d-d4", "2d-d5-shifted")


def child_env():
    """Environment of every child: the checkout's src/ first, one BLAS
    thread, fixed hashing."""
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def tail(samples, pct):
    """(value, samples beyond it) of the nearest-rank ``pct`` percentile."""
    xs = sorted(samples)
    rank = max(1, math.ceil(pct * len(xs) / 100.0))
    return xs[rank - 1], len(xs) - rank


def import_breakdown(text):
    """(package_s, scipy_s) from ``-X importtime`` output: the cumulative
    time of ``poincarelab`` and of every scipy import not nested in
    another scipy import."""
    entries = []
    for line in text.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            entries.append((len(m.group(3)), m.group(4),
                            int(m.group(2)) * 1e-6))
    package = sum(cum for _, name, cum in entries if name == "poincarelab")
    # the output is post-order: walking it backwards, each entry's parent
    # is the nearest open entry with a smaller indent
    scipy, parents = 0.0, []
    for indent, name, cum in reversed(entries):
        while parents and parents[-1][0] >= indent:
            parents.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(s for _, s in parents):
            scipy += cum
        parents.append((indent, is_scipy))
    return package, scipy


# -- children ---------------------------------------------------------------

def read_and_reap(proc, timeout):
    """Read a child's remaining stdout, then reap it with its rusage."""
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        _, status, ru = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out, ru


def start_worker(args, workdir, env, setup_only, stderr_path=None):
    """Spawn a worker; return (process, seconds until it printed READY)."""
    argv = [sys.executable]
    if stderr_path:
        argv += ["-X", "importtime"]
    argv += [os.path.join(HERE, "worker.py"), args.workload, str(args.seed),
             str(args.seconds), str(args.trace), args.size, workdir]
    if setup_only:
        argv.append("--setup-only")
    err = open(stderr_path, "w") if stderr_path else None
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=env, text=True)
        killer = threading.Timer(60.0, proc.kill)
        killer.start()
        try:
            line = proc.stdout.readline()
        finally:
            killer.cancel()
        setup = time.perf_counter() - t0
    finally:
        if err:
            err.close()
    if line.strip() != "READY":
        read_and_reap(proc, 10.0)
        raise RuntimeError(f"worker set-up failed (exit {proc.returncode})")
    return proc, setup


def interp_start(env):
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True,
                   timeout=30)
    return time.perf_counter() - t0


# -- metrics ----------------------------------------------------------------

def judge(records):
    """Mark each record failed or not; a job fails on an exception, a
    broken invariant, or a digest that differs from its first round."""
    first = {}
    for r in records:
        first.setdefault(r["job"], r["digest"])
        r["failed"] = bool(r["problems"]) or r["digest"] is None \
            or r["digest"] != first[r["job"]]
        if r["digest"] != first[r["job"]] and not r["problems"]:
            r["problems"] = ["output differs from round 0"]
    return first


def job_list_time(records, key="wall"):
    """Time of the fixed job list: the sum over jobs of each job's median."""
    by_job = {}
    for r in records:
        by_job.setdefault(r["job"], []).append(r[key])
    return sum(statistics.median(v) for v in by_job.values())


def end_to_end(records, setups, peak_rss_mb, pct):
    walls = [r["wall"] for r in records]
    failed = sum(r["failed"] for r in records)
    tail_value, beyond = tail(walls, pct)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (job_list_time(records), "s"),
        "cpu_s": (job_list_time(records, "cpu"), "s"),
        "job_s.p50": (statistics.median(walls), "s"),
        "job_s.tail": (tail_value, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_ratio": (1.0 - failed / len(records), "ratio"),
    }
    notes = {"job_s.tail": f"p{pct:g} of {len(walls)} job samples, "
                           f"{beyond} beyond it",
             "setup_s": f"median of {len(setups)} fresh interpreters",
             "ok_ratio": f"fail_ratio = {failed}/{len(records)} = "
                         f"{failed / len(records):.6g}"}
    return metrics, notes


# Per-layer metrics from the traced rounds, per round.  SELF: self time of
# the span name; CALLS: its number of spans; COUNTS: a count recorded by
# tracing.py under that key (unit).
SELF = (["weights." + f for f in (
            "ainf_fujii_wilson", "ap1_constant", "ap_constant",
            "rh_exponent_and_check", "rhinf_constant",
            "PowerWeight.cell_masses")]
        + ["operators." + f for f in (
            "centered_maximal_values", "rubio_de_francia", "maximal_opnorm",
            "fractional_integral", "centered_maximal_measure",
            "weak_norm_values")]
        + ["grid.block_reduce", "grid.CubeIndex.children",
           "grid.discrete_gradient", "functionals.sdp_check",
           "functionals.max_dp_ratio", "functionals.random_small_family",
           "decomposition.cz_decompose", "inequalities.check_inequality",
           "inequalities.sharpness_sweep"])
CALLS = ("weights.ainf_fujii_wilson", "operators.centered_maximal_values",
         "operators.weak_norm_values", "grid.block_reduce",
         "grid.CubeIndex.children", "functionals.dp_ratio",
         "functionals.random_small_family")
COUNTS = dict(
    [(f"weights.constants_report.{size}_s", "s") for size in REPORT_SIZES]
    + [("weights.ainf_fujii_wilson.cubes", "count"),
       ("operators.centered_maximal_values.window_reads", "count"),
       ("grid.block_reduce.cells_read", "count"),
       ("decomposition.cz_decompose.stopping_cubes", "count"),
       ("decomposition.cz_decompose.bad_bytes", "B")])


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(summary, traced, imports):
    rounds = summary["traced_rounds"]
    self_s, calls = summary["self_s"], summary["calls"]
    counts = summary["counts"]
    m = {f"import.{k}_s": (v, "s") for k, v in imports.items()}
    m.update({f"cli.main_s.{job}": (summary["main_s"].get(job, 0.0) / rounds,
                                    "s") for job in CLI_JOBS})
    m.update({f"{k}.self_s": (self_s.get(k, 0.0) / rounds, "s") for k in SELF})
    m.update({f"{k}.calls": (calls.get(k, 0) / rounds, "count")
              for k in CALLS})
    m.update({k: (counts.get(k, 0) / rounds, u) for k, u in COUNTS.items()})
    m.update({f"{mod}.self_s": (sum(v for k, v in self_s.items()
                                    if k.startswith(mod + ".")) / rounds, "s")
              for mod in MODULES})
    cmv = "operators.centered_maximal_values"
    m[f"{cmv}.cells_per_call"] = (
        _ratio(counts.get(f"{cmv}.cells", 0), calls.get(cmv, 0)), "count")
    m["weights.ainf_per_report"] = (
        _ratio(calls.get("weights.ainf_fujii_wilson", 0),
               calls.get("weights.constants_report", 0)), "ratio")
    m["functionals.eval_per_node"] = (
        _ratio(counts.get("functionals.dp_evals", 0),
               counts.get("functionals.dp_tree_nodes", 0)), "ratio")
    m["decomposition.cz_decompose.peak_alloc_mb"] = (
        summary["peaks"].get("decomposition.cz_decompose.peak_alloc_mb", 0.0),
        "MB")
    traced_wall = job_list_time(traced)
    m["trace.wall_s"] = (traced_wall, "s")
    # the tracer's own cost per traced round: its spans times the measured
    # cost of one span
    m["trace.overhead_s"] = (
        counts.get("trace.spans", 0) / rounds * span_cost(), "s")
    m["trace.covered_share"] = (
        sum(self_s.values()) / sum(r["wall"] for r in traced), "ratio")
    return m


# -- main -------------------------------------------------------------------

def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: smoke-test inputs, a few seconds per run")
    return ap.parse_args(argv)


def run(args):
    started = time.perf_counter()
    env = child_env()
    tag = f"{args.workload}-seed{args.seed}"
    workdir = os.path.join(os.getcwd(), ".perfbench_work",
                           f"{tag}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setups, probes = [], []
        for i in range(SETUPS - 1):
            err = os.path.join(workdir, f"importtime-{i}.txt") \
                if args.trace else None
            proc, setup = start_worker(args, workdir, env, True, err)
            read_and_reap(proc, 30.0)
            setups.append(setup)
            if err:
                with open(err) as fh:
                    probes.append(import_breakdown(fh.read()))
        proc, setup = start_worker(args, workdir, env, False)
        setups.append(setup)
        out, ru = read_and_reap(proc,
                                TIME_LIMIT - (time.perf_counter() - started))
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")
        result = json.loads(out.strip().splitlines()[-1])
        records = result["records"]
        digests = judge(records)
        if args.trace:
            imports = {"interp": statistics.median(interp_start(env)
                                                   for _ in range(SETUPS)),
                       "package": statistics.median(p for p, _ in probes),
                       "scipy": statistics.median(s for _, s in probes)}
            metrics = per_layer(result["trace"],
                                [r for r in records if r["traced"]], imports)
            notes = {}
            outdir = os.path.join(os.getcwd(), ".perfbench_out")
            os.makedirs(outdir, exist_ok=True)
            os.replace(os.path.join(workdir, "spans.json"),
                       os.path.join(outdir, f"spans-{tag}.json"))
        else:
            rss = [r["rss_kb"] for r in records if r["rss_kb"]]
            peak = (max(rss) if rss else ru.ru_maxrss) / 1024.0
            metrics, notes = end_to_end(records, setups, peak,
                                        TAIL_PERCENTILE[args.workload])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(r["failed"] for r in records)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={result['rounds']} jobs={len(records)}")
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"{name:<48} {value:>16.6g} {unit:<6} {note}".rstrip())
    for r in records:
        if r["failed"]:
            print(f"FAILED {r['job']} round {r['round']}: "
                  + "; ".join(r["problems"]))
    for job, dig in digests.items():
        walls = [r["wall"] for r in records if r["job"] == job]
        print(f"digest {job} {dig}  median wall "
              f"{statistics.median(walls):.4g} s over {len(walls)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None):
    args = parse(argv)
    if not os.path.isfile(os.path.join("src", "poincarelab", "__init__.py")):
        print("error: run from the root of a poincarelab checkout "
              "(src/poincarelab not found)", file=sys.stderr)
        return 2
    try:
        return run(args)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
