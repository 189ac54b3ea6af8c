"""Start one ``repro worker`` with the benchmark's tracer installed.

Usage (what the fleet workload runs)::

    python perfbench/worker_boot.py --out FILE [--trace] -- --connect HOST:PORT ...

Everything after ``--`` goes to ``repro worker``. When the worker exits,
its peak resident memory and (with ``--trace``) its spans are written to
``FILE`` as JSON for the coordinator-side benchmark to merge. The
environment (pinned BLAS threads, ``PYTHONPATH``) comes from the parent.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("worker_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    worker_args = [a for a in args.worker_args if a != "--"]

    from repro.cli import main as repro_main

    tracer = None
    if args.trace:
        from layers import probes
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(probes(), package="repro")
    try:
        code = repro_main(["worker", *worker_args])
    finally:
        payload = {
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "trace": tracer.dump() if tracer is not None else None,
        }
        tmp = args.out + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, args.out)
    return int(code or 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
