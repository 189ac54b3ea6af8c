"""Determinism matrix for the vectorized rollout path and the trial cache.

At ``n_envs>1`` a campaign's table fingerprint is a pure function of its
seed: stable across the serial/thread/process executors and across
cache-cold vs cache-warm runs. (``n_envs=1`` results are pinned to the
historical single-env numbers by ``tests/test_train_golden.py``.)
"""

from __future__ import annotations

from repro.core import RandomSearch
from repro.core.serialization import table_fingerprint
from repro.frameworks import TrainSpec, get_framework
from repro.obs import RingBufferSink, Telemetry
from repro.paper import Scale, airdrop_parameter_space, table1_campaign

STEPS = 900


def _spec(algorithm: str, **overrides) -> TrainSpec:
    return TrainSpec(
        algorithm=algorithm,
        cores_per_node=2,
        seed=3,
        total_steps=STEPS,
        paper_steps=STEPS,
        **overrides,
    )


def _assert_results_equal(a, b) -> None:
    assert a.reward == b.reward
    assert a.eval_reward == b.eval_reward
    assert a.computation_time_s == b.computation_time_s
    assert a.energy_kj == b.energy_kj
    assert a.learning_curve == b.learning_curve
    assert a.diagnostics == b.diagnostics


def test_vectorized_width_is_seed_deterministic():
    fw = get_framework("stable")
    first = fw.train(_spec("ppo", n_envs=4))
    second = fw.train(_spec("ppo", n_envs=4))
    _assert_results_equal(first, second)


def _campaign(n_envs: int, **kwargs):
    return table1_campaign(
        seed=5,
        scale=Scale(real_steps=400),
        explorer=RandomSearch(airdrop_parameter_space(), n_trials=3, seed=5),
        n_envs=n_envs,
        **kwargs,
    )


def test_vectorized_fingerprint_stable_across_executors():
    serial = _campaign(n_envs=4).run()
    fingerprint = table_fingerprint(serial.table)
    assert all(t.ok for t in serial.table)
    for executor in ("thread", "process"):
        report = _campaign(n_envs=4, executor=executor, max_workers=2).run()
        assert table_fingerprint(report.table) == fingerprint, executor


def test_cache_warm_run_is_byte_identical_and_step_free(tmp_path):
    cold = _campaign(n_envs=2, cache=tmp_path / "cache").run()
    assert cold.meta["n_cached"] == 0

    sink = RingBufferSink()
    telemetry = Telemetry(sink)
    warm = _campaign(n_envs=2, cache=tmp_path / "cache", telemetry=telemetry).run()
    assert warm.meta["n_cached"] == len(warm.table) == 3
    assert table_fingerprint(warm.table) == table_fingerprint(cold.table)
    # zero environment work: every trial came straight from the cache
    counters = telemetry.meters.snapshot().get("counters", {})
    assert counters.get("env_steps", 0) == 0
    assert counters.get("cache/hits") == 3
    assert len(sink.events("trial_cache_hit")) == 3
