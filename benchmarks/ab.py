"""Same-runner A/B benchmark gate: a change against its parent.

    python benchmarks/ab.py PARENT_TREE CHANGE_TREE

Both arguments are checkouts of the repository; in CI the parent is a
``git worktree`` at the merge base with the change's ``perfbench/``
copied in, so both sides run one harness. For every workload in the
change's ``BENCHMARK.json``, ``K_PAIRS`` pairs of ``perfbench/run.py
--trace 0`` runs execute on this runner, alternating which side goes
first, and the last JSON line of each run is read. Host load hits both
sides of a pair alike, so there is no stored baseline to drift from.

A workload fails when any run of either side is not ``correct``, when
the change's share of failed operations is higher than the parent's, or
when an end-to-end metric's median is worse than the parent's by more
than its ``BENCHMARK.json`` bound *and* the change lost more than half
of the pairs on it. A failed workload gets one traced pair
(``--trace 1``): its per-layer ``*self_s`` deltas are printed and the
failure message names the layer that grew most.

Recordings go to ``CHANGE_TREE/.bench_out/ab/{parent,change}/``. The
last line of output is a one-line JSON summary. Exit status: 0 when
every workload passes, 1 when one fails, 2 on bad arguments.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from typing import Any

#: pairs per workload; pair i runs seed SEEDS[i] on both sides
K_PAIRS = 5
SEEDS = tuple(range(1, K_PAIRS + 1))
#: the seed of the traced pair a failed workload gets
TRACE_SEED = 1
SIDES = ("parent", "change")

Result = dict[str, Any]


def run(tree: str, out: str, workload: str, seed: int, seconds: float, trace: int) -> Result:
    """One perfbench run's result line; a crash counts as an incorrect run."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", out]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        sys.stderr.write(proc.stderr[-4000:])
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return result


def value(result: Result, name: str) -> float:
    return float(result["metrics"][name]["value"])


def worse_share(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of ``parent``."""
    delta = change - parent if better == "lower" else parent - change
    return delta / parent


def failed_share(results: list[Result]) -> float:
    attempted = sum(result["attempted"] for result in results)
    return sum(result["failed"] for result in results) / attempted if attempted else 0.0


def verdict(
    parent: list[Result], change: list[Result], end_to_end: list[dict[str, Any]]
) -> tuple[list[str], dict[str, Any]]:
    """The gate failures of one workload and its per-metric summary.

    ``parent[i]`` and ``change[i]`` are pair ``i``; ``end_to_end`` is the
    ``BENCHMARK.json`` list of metrics with their ``better`` and ``bound``.
    """
    failures = []
    for side, results in zip(SIDES, (parent, change)):
        incorrect = sum(not result["correct"] for result in results)
        if incorrect:
            failures.append(f"{incorrect}/{len(results)} {side} runs not correct")
    if failed_share(change) > failed_share(parent):
        failures.append(f"failed share rose from {failed_share(parent):.1%} "
                        f"to {failed_share(change):.1%}")
    if any(not result["correct"] for result in (*parent, *change)):
        return failures, {}
    summary = {}
    for metric in end_to_end:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        parent_values = [value(result, name) for result in parent]
        change_values = [value(result, name) for result in change]
        lost = sum(worse_share(p, c, better) > 0 for p, c in zip(parent_values, change_values))
        parent_median = statistics.median(parent_values)
        change_median = statistics.median(change_values)
        worse = worse_share(parent_median, change_median, better)
        summary[name] = {"parent_median": parent_median, "change_median": change_median,
                         "worse": round(worse, 4), "lost": lost}
        if worse > bound and lost > len(parent) / 2:
            failures.append(f"{name} median {parent_median:.4g} -> {change_median:.4g} "
                            f"{metric['unit']} ({worse:+.1%}, bound {bound:.0%}), "
                            f"change lost {lost}/{len(parent)} pairs")
    return failures, summary


def layer_deltas(parent: Result, change: Result) -> dict[str, float]:
    """Per-layer self-time growth (change minus parent) of one traced pair."""
    return {name: value(change, name) - value(parent, name)
            for name in parent["metrics"]
            if name.endswith("self_s") and name in change["metrics"]}


def grown_layer(deltas: dict[str, float]) -> str:
    return max(deltas, key=deltas.__getitem__)


def _git_sha(tree: str) -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def _trace(trees: dict[str, str], out: str, workload: str, seconds: float) -> tuple[str, dict]:
    """Run one traced pair; the grown-layer note and the per-layer deltas."""
    traced = {side: run(trees[side], os.path.join(out, side), workload, TRACE_SEED, seconds, 1)
              for side in SIDES}
    if not all(result["correct"] for result in traced.values()):
        return "the traced pair did not run correctly", {}
    deltas = layer_deltas(traced["parent"], traced["change"])
    print(f"  traced pair (seed {TRACE_SEED}), self time change minus parent:", flush=True)
    for name, delta in sorted(deltas.items(), key=lambda item: -item[1]):
        print(f"    {name:32s} {delta:+10.3f} s")
    grown = grown_layer(deltas)
    return f"layer that grew most: {grown} ({deltas[grown]:+.3f} s)", deltas


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(
        os.path.isfile(os.path.join(tree, "perfbench", "run.py")) for tree in argv
    ):
        print("usage: python benchmarks/ab.py PARENT_TREE CHANGE_TREE "
              "(two checkouts, each with perfbench/run.py)", file=sys.stderr)
        return 2
    trees = dict(zip(SIDES, (os.path.abspath(tree) for tree in argv)))
    with open(os.path.join(trees["change"], "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    out = os.path.join(trees["change"], ".bench_out", "ab")
    summary: dict[str, Any] = {side: _git_sha(trees[side]) for side in SIDES}
    summary["workloads"] = {}
    failures = []
    for workload in (item["name"] for item in spec["workloads"]):
        results: dict[str, list[Result]] = {side: [] for side in SIDES}
        for i, seed in enumerate(SEEDS):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                result = run(trees[side], os.path.join(out, side), workload, seed, seconds, 0)
                results[side].append(result)
                shown = {name: f"{metric['value']:.4g}"
                         for name, metric in result["metrics"].items()}
                print(f"{workload} seed {seed} {side}: correct={result['correct']} {shown}",
                      flush=True)
        found, metrics = verdict(results["parent"], results["change"], spec["end_to_end"])
        for name, row in metrics.items():
            print(f"  {name:12s} parent {row['parent_median']:10.4g}  change "
                  f"{row['change_median']:10.4g}  worse {row['worse']:+7.1%}  "
                  f"lost {row['lost']}/{K_PAIRS}", flush=True)
        entry: dict[str, Any] = {"metrics": metrics, "failures": found}
        if found:
            note, entry["layer_deltas"] = _trace(trees, out, workload, seconds)
            found.append(note)
            failures.extend(f"{workload}: {failure}" for failure in found)
        summary["workloads"][workload] = entry
    print("GATE FAILED\n  " + "\n  ".join(failures) if failures else "gate passed", flush=True)
    summary["gate"] = "fail" if failures else "pass"
    print(json.dumps(summary, separators=(",", ":")))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
