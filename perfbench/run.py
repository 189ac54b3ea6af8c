"""The repository benchmark: one command, three workloads, checked outputs.

Run one workload (what a recording needs)::

    python3 perfbench/run.py --workload table1_train --seed 1 --seconds 20 --trace 0

or every workload, untraced and then traced, with the per-layer summary::

    python3 perfbench/run.py --workload all --seed 1

Tracing off (``--trace 0``), the last line of output is a JSON object whose
``metrics`` are the end-to-end metrics; tracing on, the per-layer metrics.
Every invocation checks the program's outputs and exits non-zero if a
check fails. Recordings, including the numeric environment, and the
traced run's Chrome-trace JSON go to ``--out`` (default ``.bench_out/``).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
import traceback
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from checks import CheckFailed  # noqa: E402
from layers import PER_LAYER, layer_table  # noqa: E402
from envinfo import PINNED_ENV, numeric_environment, unpinned  # noqa: E402
from tracer import chrome_trace  # noqa: E402

#: end-to-end metrics, reported by every untraced run of every workload
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "campaign_s": "s",
    "peak_rss_mb": "MB",
}
WORKLOAD_NAMES = ("table1_train", "fleet_loopback2", "serve_mixed")
#: a run that has not finished by then is stopped and fails
RUN_DEADLINE_S = 175


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _write_json(path: str, payload: Any, indent: int | None = 1) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=indent, separators=None if indent else (",", ":"))
        handle.write("\n")


def _on_deadline(signum: int, frame: Any) -> None:
    raise TimeoutError(f"run exceeded {RUN_DEADLINE_S} s")


def run_one(args: argparse.Namespace) -> int:
    from workloads import WORKLOADS, Context

    tag = f"{args.workload}-seed{args.seed}-{'traced' if args.trace else 'untraced'}"
    out = os.path.join(args.out, tag)
    os.makedirs(out, exist_ok=True)
    ctx = Context(root=ROOT, out=out, seed=args.seed, seconds=args.seconds,
                  trace=bool(args.trace))
    signal.signal(signal.SIGALRM, _on_deadline)
    signal.alarm(RUN_DEADLINE_S)
    started = time.perf_counter()
    try:
        result = WORKLOADS[args.workload](ctx)
    except CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        signal.alarm(0)
    elapsed = time.perf_counter() - started

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": result.metrics[name], "unit": unit}
               for name, unit in units.items()}
    recording: dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "elapsed_s": elapsed,
        "environment": numeric_environment(ROOT),
        "metrics": metrics,
        "samples": result.samples,
        "attempted": result.attempted,
        "failed": result.failed,
        "checks_passed": ctx.checks.passed,
    }
    print(f"{args.workload} (seed {args.seed}, {'traced' if args.trace else 'untraced'}, "
          f"{elapsed:.1f} s)")
    for name, entry in metrics.items():
        print(f"  {name:32s} {_fmt(entry['value']):>12s} {entry['unit']}")
    for name, values in sorted(result.samples.items()):
        print(f"  samples {name}: n={len(values)}")
    print(f"  checks passed: {len(ctx.checks.passed)}")
    if args.trace:
        rows = layer_table(result.processes, result.traced_wall_s)
        recording["layers"] = rows
        print(f"  {'layer':12s} {'self_s':>10s} {'calls':>9s} {'share_of_wall':>14s}")
        for row in rows:
            print(f"  {row['layer']:12s} {row['self_s']:10.3f} {row['calls']:9d} "
                  f"{row['share_of_wall']:14.3f}")
        trace_path = os.path.join(out, "trace.json")
        _write_json(trace_path, chrome_trace(result.processes), indent=None)
        print(f"  chrome trace: {os.path.relpath(trace_path, ROOT)}")
    _write_json(os.path.join(out, "recording.json"), recording)
    print(json.dumps({
        "correct": True,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload untraced, then traced, each in its own process."""
    code = 0
    summary: list[tuple[str, int, dict[str, Any]]] = []
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--out", args.out]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            last = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not last.get("correct"):
                code = 1
            summary.append((workload, trace, last.get("metrics", {})))
    print("\nsummary")
    for workload, trace, metrics in summary:
        for name, entry in metrics.items():
            print(f"  {workload:16s} {name:32s} {_fmt(entry['value']):>12s} {entry['unit']}")
    print("all checks passed" if code == 0 else "SOME RUNS FAILED", flush=True)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_out"))
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program sources at {os.path.join(ROOT, 'src', 'repro')}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except Exception:  # noqa: BLE001 - any crash is a failed run, never a result
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    if unpinned():
        # the allocator and BLAS read these at start-up: restart under them
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
                  {**os.environ, **PINNED_ENV})
    sys.exit(main())
