"""Tests of the benchmark itself (run with ``python -m pytest perfbench``).

The smoke runs shrink each workload's budget; they exercise the same code
paths, checks and output contract as a real recording.
"""

from __future__ import annotations

import json
import os
import re
import sys
import threading
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed, Checks, digest  # noqa: E402
from layers import PER_LAYER, layer_metrics  # noqa: E402
from tracer import Probe, Tracer, chrome_trace, self_times, union_length  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ------------------------------------------------------------------ tracer
def test_union_length_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert union_length([]) == 0.0


def test_self_time_on_synthetic_nested_tree():
    tracer = Tracer()
    root = tracer.record("root", "core", 0.0, 10.0)
    a = tracer.record("a", "exec", 1.0, 3.0, parent=root.sid)
    # a child that ran on another thread and overlaps its sibling
    tracer.record("b", "exec", 2.0, 4.0, parent=root.sid)
    c = tracer.record("c", "airdrop", 5.0, 6.0, parent=root.sid)
    tracer.record("c1", "rl", 5.2, 5.5, parent=c.sid)
    # a child overhanging its parent is clipped to the parent's interval
    tracer.record("a1", "rl", 2.5, 3.5, parent=a.sid)
    selfs = self_times(tracer.spans)
    by_name = {span.name: selfs[span.sid] for span in tracer.spans}
    assert by_name["root"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert by_name["a"] == pytest.approx(2.0 - 0.5)
    assert by_name["b"] == pytest.approx(2.0)
    assert by_name["c"] == pytest.approx(1.0 - 0.3)
    assert by_name["c1"] == pytest.approx(0.3)
    assert by_name["a1"] == pytest.approx(1.0)


class _Toy:
    def outer(self, n):
        for _ in range(n):
            self.inner()
        return n

    def inner(self):
        time.sleep(0.002)


def test_wrappers_nest_spans_and_share_trial_ids(monkeypatch):
    monkeypatch.setitem(sys.modules, "toymod", sys.modules[__name__])
    tracer = Tracer()
    tracer.install([
        Probe("toymod:_Toy.outer", "core", "outer", rows=lambda a, k, r: r,
              trial=lambda a, k: "t1"),
        Probe("toymod:_Toy.inner", "rl", "inner"),
        Probe("toymod:not_there", "rl", "missing"),
    ], package="toymod")
    try:
        assert _Toy().outer(3) == 3
    finally:
        tracer.uninstall()
    assert "toymod:not_there" in tracer.missing
    assert not hasattr(_Toy.outer, "__wrapped__")
    outer = [s for s in tracer.spans if s.name == "outer"]
    inner = [s for s in tracer.spans if s.name == "inner"]
    assert len(outer) == 1 and len(inner) == 3 and outer[0].rows == 3
    assert all(s.parent == outer[0].sid for s in inner)
    assert len({s.trial for s in tracer.spans}) == 1 and outer[0].trial
    selfs = self_times(tracer.spans)
    covered = sum(s.duration for s in inner)
    assert selfs[outer[0].sid] == pytest.approx(outer[0].duration - covered, abs=1e-9)


def test_spans_on_other_threads_are_top_level():
    tracer = Tracer()
    probe = Probe("x:f", "exec", "f")
    fn = tracer.wrap(probe, lambda: None)
    thread = threading.Thread(target=fn)
    thread.start()
    thread.join()
    fn()
    assert [s.parent for s in tracer.spans] == [None, None]
    assert len({s.tid for s in tracer.spans}) == 2


def test_chrome_trace_is_complete_events():
    tracer = Tracer()
    root = tracer.record("root", "core", 1.0, 2.0, trial="t")
    tracer.record("leaf", "rl", 1.1, 1.2, parent=root.sid, rows=4, trial="t")
    trace = chrome_trace([("benchmark", tracer.epoch_offset, tracer.spans)])
    events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert [e["name"] for e in events] == ["root", "leaf"]
    assert events[0]["ts"] == 0.0 and events[1]["dur"] == pytest.approx(1e5)
    assert events[1]["args"] == {"sid": 2, "parent": 1, "trial": "t", "rows": 4}
    json.dumps(trace)


def test_layer_metrics_cover_every_per_layer_name():
    tracer = Tracer()
    tracer.record("core.campaign", "core", 0.0, 1.0)
    metrics = layer_metrics([("benchmark", 0.0, tracer.spans)], {},
                            window=(0.0, 2.0), untraced_wall_s=1.6)
    assert list(metrics) == list(PER_LAYER)
    assert metrics["core.campaign_self_s"] == pytest.approx(1.0)
    assert metrics["bench.unattributed_s"] == pytest.approx(1.0)
    assert metrics["bench.trace_overhead_share"] == pytest.approx(0.25)


# ------------------------------------------------------- metric contract
def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_metric_names_and_units_are_well_formed():
    for name, unit in {**run.END_TO_END, **PER_LAYER}.items():
        assert NAME.match(name), name
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
        assert UNIT.match(unit), unit


def test_benchmark_json_matches_what_the_runs_print():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


# --------------------------------------------------------------- checks
def test_checks_fire():
    checks = Checks()
    with pytest.raises(CheckFailed):
        checks.trials_completed("x", ["completed", "failed"], 2)
    with pytest.raises(CheckFailed):
        checks.trials_completed("x", ["completed"], 2)
    with pytest.raises(CheckFailed):
        checks.identical("x", {"a": "fp", "b": "fp2"})
    with pytest.raises(CheckFailed):
        checks.refingerprints("x", "fp", digest("other"))
    with pytest.raises(CheckFailed):
        checks.equal("x", 0.5, 1.0)
    checks.identical("x", {"a": "fp", "b": "fp"})
    checks.refingerprints("x", "fp", digest("fp"))
    assert len(checks.passed) == 2


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "TABLE1_STEPS", 40)
    monkeypatch.setattr(workloads, "FLEET_STEPS", 40)
    monkeypatch.setattr(workloads, "SERVE_STEPS", 40)
    monkeypatch.setattr(workloads, "SERVE_MIN_BLOCKS", 1)
    monkeypatch.setattr(workloads, "IMPORT_SAMPLES", 1)
    return tmp_path


def _ctx(out, trace=False, seed=3):
    return workloads.Context(root=ROOT, out=str(out), seed=seed, seconds=0.0, trace=trace)


def test_failing_case_study_fails_the_run(tiny, monkeypatch):
    from repro.frameworks import base

    original = base.Framework.train

    def flaky(self, spec, *args, **kwargs):
        if spec.rk_order == 8:
            raise RuntimeError("injected failure")
        return original(self, spec, *args, **kwargs)

    monkeypatch.setattr(base.Framework, "train", flaky)
    with pytest.raises(CheckFailed, match="not completed"):
        workloads.table1_train(_ctx(tiny))


def _tampering(monkeypatch, module):
    """Make every other fingerprint come out different."""
    original = module.table_fingerprint
    calls = []

    def tampered(table):
        calls.append(1)
        fp = original(table)
        return fp + "tampered" if len(calls) % 2 == 0 else fp

    monkeypatch.setattr(module, "table_fingerprint", tampered)


def test_tampered_fingerprint_fails_repeated_runs(tiny, monkeypatch):
    from repro.core import serialization

    _tampering(monkeypatch, serialization)
    with pytest.raises(CheckFailed, match="fingerprints differ"):
        workloads.table1_train(_ctx(tiny))


def test_tampered_fingerprint_fails_fleet_vs_serial(tiny, monkeypatch):
    from repro.core import serialization

    monkeypatch.setattr(workloads, "_keep_going",
                        lambda ctx, start, done, minimum: done < 1)
    _tampering(monkeypatch, serialization)
    with pytest.raises(CheckFailed, match="fingerprints differ"):
        workloads.fleet_loopback2(_ctx(tiny))


def test_tampered_served_fingerprint_fails_warm_vs_cold(tiny, monkeypatch):
    from repro.serve import server

    _tampering(monkeypatch, server)
    with pytest.raises(CheckFailed, match="fingerprints differ|re-fingerprints"):
        workloads.serve_mixed(_ctx(tiny))


def test_table_not_matching_end_record_fails(tiny, monkeypatch):
    from repro.core import serialization

    original = serialization.table_fingerprint
    monkeypatch.setattr(serialization, "table_fingerprint",
                        lambda table: original(table) + "x")
    with pytest.raises(CheckFailed, match="re-fingerprints"):
        workloads.serve_mixed(_ctx(tiny))


# ------------------------------------------------------------ smoke runs
def _last_json(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_reports_every_metric(workload, tiny, capsys):
    args = ["--workload", workload, "--seed", "5", "--seconds", "0", "--out", str(tiny)]
    assert run.main([*args, "--trace", "0"]) == 0
    untraced = _last_json(capsys)
    assert untraced["correct"] and untraced["failed"] == 0 and untraced["attempted"] >= 1
    assert set(untraced) == {"correct", "attempted", "failed", "metrics"}
    assert list(untraced["metrics"]) == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in untraced["metrics"].values())

    assert run.main([*args, "--trace", "1"]) == 0
    traced = _last_json(capsys)
    assert traced["correct"] and list(traced["metrics"]) == list(PER_LAYER)
    layer = {name: m["value"] for name, m in traced["metrics"].items()}
    assert layer["net.tasks"] == (18 if workload == "fleet_loopback2" else 0)
    assert layer["rl.sac_update_calls"] == 0  # tiny budgets stay below learning_starts
    assert layer["airdrop.rows"] > 0 and layer["frameworks.evaluate_calls"] > 0
    if workload == "serve_mixed":
        assert layer["exec.cache_hit_ratio"] == pytest.approx(0.5)
    tag = f"{workload}-seed5-traced"
    with open(tiny / tag / "trace.json", encoding="utf-8") as handle:
        trace = json.load(handle)
    trials = {e["args"].get("trial") for e in trace["traceEvents"] if e["ph"] == "X"}
    assert len(trials - {None}) >= 1
    with open(tiny / tag / "recording.json", encoding="utf-8") as handle:
        recording = json.load(handle)
    env = recording["environment"]
    for key in ("git_sha", "python", "numpy", "blas", "nproc", "pinned_env"):
        assert key in env
    assert recording["layers"]


def test_sac_updates_run_only_above_learning_starts(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(workloads, "TABLE1_STEPS", 1040)
    monkeypatch.setattr(workloads, "IMPORT_SAMPLES", 1)
    args = ["--workload", "table1_train", "--seed", "5", "--seconds", "0",
            "--out", str(tmp_path), "--trace", "1"]
    assert run.main(args) == 0
    layer = {name: m["value"] for name, m in _last_json(capsys)["metrics"].items()}
    assert layer["rl.sac_update_calls"] > 0 and layer["rl.sac_update_ms"] > 0


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    assert run.main(["--workload", "table1_train", "--seed", "1"]) == 2
    assert capsys.readouterr().out == ""
