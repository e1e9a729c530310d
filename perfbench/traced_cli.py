"""Run one poincarelab CLI command with spans installed, then write them.

Usage: python3 perfbench/traced_cli.py SPANS_OUT SPAWN_TIME ARG...

SPAWN_TIME is the parent's ``time.time()`` just before it started this
interpreter; the gap to this script's first line is the interpreter
start-up span.  The command's output goes to stdout unchanged.
"""

import time

ENTRY = time.time()

import json  # noqa: E402
import sys  # noqa: E402


def main():
    out_path, spawn = sys.argv[1], float(sys.argv[2])
    t0 = time.perf_counter()
    import poincarelab.cli
    t1 = time.perf_counter()
    from tracing import Tracer

    tracer = Tracer()
    tracer.add_span("startup.interp", spawn, ENTRY)
    tracer.add_span("import.package", t0, t1)
    tracer.install()
    m0 = time.perf_counter()
    try:
        rc = poincarelab.cli.main(sys.argv[3:])
    finally:
        m1 = time.perf_counter()
        tracer.uninstall()
        tracer.measure_allocs()
        with open(out_path, "w") as fh:
            json.dump({"summary": tracer.summary(), "main_s": m1 - m0,
                       "names": tracer.names, "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
