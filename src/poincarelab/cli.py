"""Command-line entry point: experiment orchestration and report emission.

All structured output is strict JSON (sorted keys, fixed layout, so runs
with the same config and seed are byte-identical; NaN and infinities are
written as null); CSV is emitted only as plot-ready tables, and a command
with no table refuses ``--format csv``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from .grid import (MAX_DIM, CubeIndex, GridFunction, RootBox, check_cell_cap,
                   lebesgue_masses)
from .weights import GridWeight, PowerWeight, ap_constant, constants_report
from .operators import AP_BOUND_CN, rubio_de_francia
from .functionals import FractionalFunctional, sdp_check
from .decomposition import cz_decompose
from .inequalities import check_inequality, sharpness_sweep


class CliError(Exception):
    pass


def _finite(obj):
    """``obj`` with every NaN or infinite float replaced by None, so that
    the JSON output is strict (``null`` instead of ``NaN``/``Infinity``)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def _dump(obj, out, fmt, csv_rows=None, csv_header=None):
    if fmt == "json":
        payload = json.dumps(_finite(obj), sort_keys=True, indent=2,
                             allow_nan=False) + "\n"
    elif csv_rows is None:
        raise CliError("--format csv needs a table; this output has none")
    else:
        import io
        buf = io.StringIO()
        wr = csv.writer(buf)
        if csv_header:
            wr.writerow(csv_header)
        wr.writerows(csv_rows)
        payload = buf.getvalue()
    if out:
        with open(out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _load_weight(args, depth):
    if args.weight and args.power_weight:
        raise CliError("give --weight FILE or --power-weight, not both")
    if args.weight:
        g = GridFunction.load(args.weight)
        return GridWeight(g), g.root, g.depth
    if args.power_weight:
        kv = {}
        for tok in args.power_weight:
            k, eq, v = tok.partition("=")
            if not eq or k not in ("delta", "n"):
                raise CliError(f"--power-weight takes delta=... n=..., got {tok!r}")
            if k in kv:
                raise CliError(f"--power-weight takes {k}= once, got {tok!r} "
                               f"after {k}={kv[k]}")
            kv[k] = v
        delta = float(kv.get("delta", 0.5))
        n = int(kv.get("n", 1))
        check_cell_cap(n, depth)
        w = PowerWeight(delta, n)
        return w, w.root, depth
    raise CliError("provide --weight FILE or --power-weight delta=... n=...")


def _constants(args, command):
    w, root, depth = _load_weight(args, args.depth)
    rep = constants_report(w.cell_values(root, depth), args.p, root, depth,
                           shifted=args.shifted_grids)
    return rep.to_dict(), {"command": command, "p": args.p, "depth": depth,
                           "shifted": args.shifted_grids}


def _cmd_constants(args):
    d, config = _constants(args, "constants")
    d["config"] = config
    rows = [(k, d[k], json.dumps(d.get("ap_argmax")) if k == "ap" else "")
            for k in ("ap", "a1", "ainf_fw", "rh_exponent", "ap1", "rhinf")]
    _dump(d, args.out, args.format, rows, ("constant", "value", "argmax"))
    return 0


def _cmd_cz(args):
    h = GridFunction.load(args.input)
    dec = cz_decompose(h, L=args.L)
    stopping = [[q.level, list(q.coords)] for q in dec.stopping]
    if args.emit == "stopping":
        _dump(stopping, args.out, args.format,
              [(lv, json.dumps(c)) for lv, c in stopping], ("level", "coords"))
        return 0
    report = {
        "config": {"command": "cz", "L": args.L, "depth": h.depth},
        "stopping": stopping,
        "omega_fraction": dec.omega_volume_fraction(),
        "reconstruction_error": dec.reconstruction_error(),
        "good_max": float(np.max(np.abs(dec.good.values))),
    }
    if args.emit == "good":
        report["good"] = dec.good.to_json_dict()
    if args.emit == "bad":
        report["bad"] = [{"cube": [q.level, list(q.coords)],
                          "values": b.to_json_dict()} for q, b in dec.bad]
    _dump(report, args.out, args.format)
    return 0


def _functional_config(path):
    """The functional config file: a JSON object whose ``n`` is a dimension
    (checked before a root box is built for it), ``alpha`` a finite number,
    and ``mu`` and ``w`` each "lebesgue" or the path of a grid function
    file."""
    with open(path) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise CliError("the functional config must be a JSON object")
    if config.get("variant", "fractional") != "fractional":
        raise CliError("only the fractional variant is file-configurable")
    n, alpha = config.get("n", 1), config.get("alpha", 1.0)
    if type(n) is not int or not 1 <= n <= MAX_DIM:
        raise CliError(f"functional config: n must be an integer in "
                       f"[1, {MAX_DIM}], got {n!r}")
    if type(alpha) not in (int, float) \
            or not abs(alpha) <= sys.float_info.max:  # NaN, inf, 10**400
        raise CliError("functional config: alpha must be a finite number, "
                       f"got {alpha!r}")
    for key in ("mu", "w"):
        if not isinstance(config.get(key, "lebesgue"), str):
            raise CliError(f'functional config: {key} must be "lebesgue" or '
                           f"a file path, got {config[key]!r}")
    return config


def _cmd_functional_check(args):
    # the sampler's flags: the exhaustive DP draws nothing, so it refuses
    # them rather than echo a value that changes nothing
    sampled = args.mode == "random"
    for flag, value in (("--seed", args.seed), ("--trials", args.trials)):
        if value is not None and not sampled:
            raise CliError(f"{flag} applies only to functional-check --mode "
                           "random: the exhaustive DP draws nothing")
    seed = 0 if args.seed is None else args.seed
    trials = 200 if args.trials is None else args.trials
    config = _functional_config(args.functional)
    n = config.get("n", 1)
    depth = args.depth
    root = RootBox.unit(n)
    check_cell_cap(n, depth)

    def load_masses(key):
        src = config.get(key, "lebesgue")
        if src == "lebesgue":
            return lebesgue_masses(root, depth)
        return GridWeight(GridFunction.load(src)).cell_masses(root, depth)

    mu = load_masses("mu")
    wm = load_masses("w")
    a = FractionalFunctional(config.get("alpha", 1.0), args.p, mu, wm, root, depth)
    rep = sdp_check(a, wm, args.p, CubeIndex.root(n), depth,
                    [float(x) for x in args.Ls.split(",")],
                    trials=trials, seed=seed, mode=args.mode)
    d = rep.to_dict()
    d["config"] = {"command": "functional-check", "p": args.p, "depth": depth,
                   "Ls": args.Ls, "mode": args.mode}
    if sampled:
        d["config"].update(trials=trials, seed=seed)
    _dump(d, args.out, args.format)
    return 0


def _cmd_poincare(args):
    f = GridFunction.load(args.input)
    w = None
    if args.weight or args.power_weight:
        wobj, _, _ = _load_weight(args, f.depth)
        w = wobj.cell_masses(f.root, f.depth)
    res = check_inequality(args.id, f, u=w, p=args.p, q=args.q, m=args.m,
                           p0=args.p0, mu=w)
    d = res.to_dict()
    d["config"] = {"command": "poincare", "id": args.id, "p": args.p,
                   "q": args.q, "m": args.m, "depth": f.depth}
    _dump(d, args.out, args.format)
    return 0


def _cmd_sharpness(args):
    check_cell_cap(args.n, args.depth)
    deltas = [float(x) for x in args.deltas.split(",")]
    sweep = sharpness_sweep(args.p, args.n, args.eps, deltas, args.depth)
    d = sweep.to_dict()
    d["config"] = {"command": "sharpness", "p": args.p, "n": args.n,
                   "eps": args.eps, "depth": args.depth}
    rows = [(dl, l, r, a) for dl, l, r, a in
            zip(sweep.deltas, sweep.lhs, sweep.rhs0, sweep.a1)]
    _dump(d, args.out, args.format, rows, ("delta", "lhs", "rhs0", "a1"))
    return 0


def _cmd_rdf(args):
    if (args.opnorm == "supplied") != (args.opnorm_value is not None):
        raise CliError("--opnorm-value goes with --opnorm supplied, "
                       "and only with it")
    h = GridFunction.load(args.input)
    wobj, _, _ = _load_weight(args, h.depth)
    p, opnorm = args.p, args.opnorm_value
    if args.opnorm == "ap-bound" and p > 1:  # rubio_de_francia refuses p <= 1
        ap = ap_constant(wobj.cell_values(h.root, h.depth), p, h.root,
                         h.depth)
        opnorm = AP_BOUND_CN * (p / (p - 1.0)) * ap ** (1.0 / (p - 1.0))
    R, rep = rubio_de_francia(h, wobj.cell_masses(h.root, h.depth), p,
                              args.terms, opnorm)
    rep["opnorm_mode"] = args.opnorm  # ap-bound arrives as a supplied number
    rep["config"] = {"command": "rdf", "p": args.p, "terms": args.terms}
    rep["majorant"] = R.to_json_dict()
    _dump(rep, args.out, args.format)
    return 0


def _cmd_report(args):
    constants, config = _constants(args, "report")
    _dump({"constants": constants, "config": config}, args.out, args.format)
    return 0


# the global flags that only some commands read: (those commands, default);
# functional-check reads --seed in random mode only, 0 by default
READ_BY_SOME = {"--seed": (("functional-check",), None),
                "--shifted-grids": (("constants", "report"), False)}


def build_parser():
    ap = argparse.ArgumentParser(prog="poincarelab")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--depth", type=int, default=None)  # 6 where it is read
    ap.add_argument("--out", default=None)
    ap.add_argument("--format", choices=("json", "csv"), default="json")
    ap.add_argument("--shifted-grids", action="store_true", default=None)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_weight_flags(sp):
        sp.add_argument("--weight", default=None)
        sp.add_argument("--power-weight", nargs="+", default=None)

    def add_common_flags(sp):
        # accept the global flags after the subcommand too
        sp.add_argument("--seed", type=int, default=argparse.SUPPRESS)
        sp.add_argument("--depth", type=int, default=argparse.SUPPRESS)
        sp.add_argument("--out", default=argparse.SUPPRESS)
        sp.add_argument("--format", choices=("json", "csv"),
                        default=argparse.SUPPRESS)
        sp.add_argument("--shifted-grids", action="store_true",
                        default=argparse.SUPPRESS)

    sp = sub.add_parser("constants")
    add_common_flags(sp)
    add_weight_flags(sp)
    sp.add_argument("--p", type=float, default=2.0)
    sp.set_defaults(func=_cmd_constants)

    sp = sub.add_parser("cz")
    add_common_flags(sp)
    sp.add_argument("--input", required=True)
    sp.add_argument("--L", type=float, default=2.0)
    sp.add_argument("--emit", choices=("stopping", "good", "bad", "report"),
                    default="report")
    sp.set_defaults(func=_cmd_cz)

    sp = sub.add_parser("functional-check")
    add_common_flags(sp)
    sp.add_argument("--functional", required=True)
    sp.add_argument("--p", type=float, default=1.0)
    sp.add_argument("--Ls", default="2,4,8")
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--mode", choices=("exhaustive", "random"),
                    default="random")
    sp.set_defaults(func=_cmd_functional_check)

    sp = sub.add_parser("poincare")
    add_common_flags(sp)
    sp.add_argument("--id", required=True)
    sp.add_argument("--input", required=True)
    add_weight_flags(sp)
    sp.add_argument("--p", type=float, default=1.0)
    sp.add_argument("--q", type=float, default=1.0)
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--p0", type=float, default=None)
    sp.set_defaults(func=_cmd_poincare)

    sp = sub.add_parser("sharpness")
    add_common_flags(sp)
    sp.add_argument("--p", type=float, default=1.0)
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--eps", type=float, default=0.05)
    sp.add_argument("--deltas", default="0.5,0.25,0.125")
    sp.set_defaults(func=_cmd_sharpness)

    sp = sub.add_parser("rdf")
    add_common_flags(sp)
    sp.add_argument("--input", required=True)
    add_weight_flags(sp)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--terms", type=int, default=20)
    sp.add_argument("--opnorm", choices=("empirical", "ap-bound", "supplied"),
                    default="empirical")
    sp.add_argument("--opnorm-value", type=float, default=None)
    sp.set_defaults(func=_cmd_rdf)

    sp = sub.add_parser("report")
    add_common_flags(sp)
    add_weight_flags(sp)
    sp.add_argument("--p", type=float, default=2.0)
    sp.set_defaults(func=_cmd_report)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise CliError(f"--{name.replace('_', '-')} must be finite, "
                               f"got {value}")
        for flag, (readers, default) in READ_BY_SOME.items():
            dest = flag[2:].replace("-", "_")
            if getattr(args, dest) is None:
                setattr(args, dest, default)
            elif args.command not in readers:
                raise CliError(f"{flag} applies only to "
                               f"{' and '.join(readers)}, not {args.command}")
        if args.depth is None:
            args.depth = 6
        elif args.command in ("cz", "poincare", "rdf"):
            raise CliError(f"--depth does not apply to {args.command}: the "
                           "grid comes from the --input file")
        elif getattr(args, "weight", None):
            raise CliError(f"--depth does not apply to {args.command} "
                           "--weight: the grid comes from the weight file")
        elif args.depth < 0:
            raise CliError(f"--depth must be >= 0, got {args.depth}")
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
