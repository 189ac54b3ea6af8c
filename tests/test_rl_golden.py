"""Golden digests of the learning updates: the numerics must not drift.

Every agent below trains on seeded synthetic data, then each network,
target network, stand-alone parameter (``log_alpha``/``log_std``), the
Adam moments and the returned training statistics are hashed and compared
against ``tests/data/rl_update_golden.json``. A refactor or speed-up of
``repro.rl`` that changes a single bit of any of them fails here.

Matmul results depend on the BLAS kernel (the OpenBLAS core type), so the
file holds one set of digests per kernel, keyed by the digest of a few
probe matmuls at the shapes these updates use. A host whose kernel has no
recording skips the comparison and says so. The file is recorded, for the
kernel at hand, only for a deliberate numeric change or a new kernel::

    PYTHONPATH=src OPENBLAS_CORETYPE=Haswell python tests/test_rl_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib

import numpy as np
import pytest

from repro.rl import (
    CategoricalPPOAgent,
    PPOAgent,
    PPOConfig,
    SACAgent,
    SACConfig,
    VTraceAgent,
)

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "rl_update_golden.json"
OBS_DIM, ACT_DIM = 5, 2


def blas_probe() -> str:
    """Digest of matmuls shaped like the updates' (plain and transposed)."""
    rng = np.random.default_rng(0)
    h = hashlib.sha256()
    for m, k, n in [(128, 7, 64), (128, 64, 64), (128, 64, 4), (128, 64, 1), (32, 64, 64),
                    (64, 64, 64), (1, 64, 64)]:
        a, b = rng.standard_normal((m, k)), rng.standard_normal((k, n))
        c = rng.standard_normal((m, n))
        for product in (a @ b, a.T @ c, c @ b.T):
            h.update(product.tobytes())
    return h.hexdigest()[:16]


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return h.hexdigest()


def _net_digest(net) -> str:
    h = hashlib.sha256()
    for name, value in net.state_dict().items():
        h.update(name.encode())
        h.update(value.tobytes())
    return h.hexdigest()


def _adam_digests(prefix: str, optimizer) -> dict[str, str]:
    return {
        f"{prefix}.t": str(optimizer.t),
        f"{prefix}.m": _digest(*optimizer._m),
        f"{prefix}.v": _digest(*optimizer._v),
    }


def _stats_digest(stats: list[dict[str, float]]) -> str:
    return hashlib.sha256(
        json.dumps(stats, sort_keys=True).encode()
    ).hexdigest()


def _synthetic_transitions(rng: np.random.Generator, n: int):
    obs = rng.standard_normal((n, OBS_DIM))
    actions = rng.uniform(-1.0, 1.0, size=(n, ACT_DIM))
    rewards = -np.sum(actions**2, axis=1) + 0.1 * obs[:, 0]
    next_obs = obs + 0.1 * rng.standard_normal((n, OBS_DIM))
    terminations = (rng.random(n) < 0.05).astype(np.float64)
    return obs, actions, rewards, next_obs, terminations


def run_sac(prioritized: bool, n_updates: int) -> dict[str, str]:
    agent = SACAgent(OBS_DIM, ACT_DIM, SACConfig(prioritized_replay=prioritized), seed=3)
    for row in zip(*_synthetic_transitions(np.random.default_rng(4), 1000)):
        agent.observe(*row)
    stats = [agent.update() for _ in range(n_updates)]
    out = {
        "policy": _net_digest(agent.policy),
        "q1": _net_digest(agent.q1.net),
        "q2": _net_digest(agent.q2.net),
        "q1_target": _net_digest(agent.q1_target.net),
        "q2_target": _net_digest(agent.q2_target.net),
        "log_alpha": _digest(agent._log_alpha.value),
        "stats": _stats_digest(stats),
    }
    out.update(_adam_digests("policy_adam", agent.policy_optimizer))
    out.update(_adam_digests("q_adam", agent.q_optimizer))
    out.update(_adam_digests("alpha_adam", agent.alpha_optimizer))
    return out


def _fill_rollout(agent, buf, rng: np.random.Generator, n_steps: int, n_envs: int) -> None:
    obs = rng.standard_normal((n_envs, agent.obs_dim))
    for _ in range(n_steps):
        out = agent.act(obs)
        actions = np.asarray(out["action"], dtype=np.float64).reshape(n_envs, -1)
        rewards = -np.sum(actions**2, axis=1) + 0.1 * obs[:, 0]
        terms = (rng.random(n_envs) < 0.05).astype(np.float64)
        buf.add(obs, actions, out["log_prob"], rewards, out["value"], terms,
                np.zeros(n_envs), np.zeros(n_envs))
        obs = rng.standard_normal((n_envs, agent.obs_dim))
    buf.finish(agent.value(obs))


def run_ppo(categorical: bool) -> dict[str, str]:
    config = PPOConfig(n_epochs=3, learning_rate=1e-3)
    if categorical:
        agent = CategoricalPPOAgent(OBS_DIM, 3, config, seed=5)
    else:
        agent = PPOAgent(OBS_DIM, ACT_DIM, config, seed=5)
    rng = np.random.default_rng(6)
    stats = []
    for _ in range(3):
        buf = agent.make_buffer(32, 4)
        _fill_rollout(agent, buf, rng, 32, 4)
        stats.append(agent.update(buf))
    out = {
        "actor": _net_digest(agent.actor),
        "critic": _net_digest(agent.critic),
        "stats": _stats_digest(stats),
    }
    if not categorical:
        out["log_std"] = _digest(agent.log_std.value)
    out.update(_adam_digests("adam", agent.optimizer))
    return out


def run_vtrace() -> dict[str, str]:
    agent = VTraceAgent(OBS_DIM, ACT_DIM, seed=7)
    rng = np.random.default_rng(8)
    T, N = 16, 4
    stats = []
    for _ in range(20):
        obs = rng.standard_normal((T, N, OBS_DIM))
        actions = rng.uniform(-1.0, 1.0, size=(T, N, ACT_DIM))
        rewards = -np.sum(actions**2, axis=2)
        terms = (rng.random((T, N)) < 0.05).astype(np.float64)
        behaviour = -rng.random((T, N))
        stats.append(agent.update(obs, actions, rewards, terms, behaviour,
                                  rng.standard_normal((N, OBS_DIM))))
    out = {
        "actor": _net_digest(agent.actor),
        "critic": _net_digest(agent.critic),
        "log_std": _digest(agent.log_std.value),
        "stats": _stats_digest(stats),
    }
    out.update(_adam_digests("adam", agent.optimizer))
    return out


CASES = {
    "sac": lambda: run_sac(prioritized=False, n_updates=200),
    "sac_prioritized": lambda: run_sac(prioritized=True, n_updates=50),
    "ppo": lambda: run_ppo(categorical=False),
    "ppo_categorical": lambda: run_ppo(categorical=True),
    "vtrace": run_vtrace,
}


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, str]]:
    probe = blas_probe()
    recorded = json.loads(GOLDEN_PATH.read_text())
    if probe not in recorded:
        pytest.skip(f"no golden digests recorded for this BLAS kernel (probe {probe})")
    return recorded[probe]["cases"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_update_digests_match_golden(case, golden):
    actual = CASES[case]()
    expected = golden[case]
    drifted = sorted(k for k in expected if actual.get(k) != expected[k])
    assert set(actual) == set(expected)
    assert not drifted, f"{case}: numerics drifted in {drifted}"


if __name__ == "__main__":
    recorded = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    probe = blas_probe()
    entry = recorded.setdefault(probe, {"openblas_coretypes": []})
    core = os.environ.get("OPENBLAS_CORETYPE", "default")
    entry["openblas_coretypes"] = sorted({*entry["openblas_coretypes"], core})
    entry["cases"] = {name: run() for name, run in sorted(CASES.items())}
    GOLDEN_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {GOLDEN_PATH} for BLAS probe {probe} ({core})")
