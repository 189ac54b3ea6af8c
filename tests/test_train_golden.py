"""Golden digests of whole training runs at ``n_envs=1``.

Every framework × algorithm trains one seeded configuration for 1200 real
steps (past SAC's ``learning_starts=1000``, so SAC updates run) and the
headline results — ``reward``, ``eval_reward``, ``computation_time_s``,
``energy_kj``, the learning curve and the diagnostics — are hashed and
compared against ``tests/data/train_golden.json``. A change to the
training loops, the evaluation loop or the environment stepping that moves
a single bit of a Table I row fails here.

Like ``tests/test_rl_golden.py``, whose BLAS probe keys the file, the
digests are recorded per BLAS kernel; a host whose kernel has no recording
skips and names its probe. Recording is reserved for a deliberate numeric
change or a new kernel::

    PYTHONPATH=src OPENBLAS_CORETYPE=Haswell python -m tests.test_train_golden
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import sys

import pytest

import repro.airdrop  # noqa: F401  (registers Airdrop-v0)
from repro.frameworks import TrainSpec, get_framework
from tests.test_rl_golden import blas_probe

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "train_golden.json"
STEPS = 1200

#: (framework, algorithm); the multi-node back-ends run on two nodes so
#: policy staleness and experience shipping are part of the digest
CASES = [
    ("rllib", "ppo"),
    ("rllib", "sac"),
    ("stable", "ppo"),
    ("stable", "sac"),
    ("tfagents", "ppo"),
    ("tfagents", "sac"),
    ("impala", "ppo"),
]


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def run_case(framework: str, algorithm: str) -> dict[str, str]:
    fw = get_framework(framework)
    spec = TrainSpec(
        algorithm=algorithm,
        n_nodes=2 if fw.supports_multi_node else 1,
        cores_per_node=2,
        seed=3,
        total_steps=STEPS,
        paper_steps=STEPS,
        n_envs=1,
    )
    result = fw.train(spec)
    return {
        "reward": result.reward.hex(),
        "eval_reward": result.eval_reward.hex(),
        "computation_time_s": result.computation_time_s.hex(),
        "energy_kj": result.energy_kj.hex(),
        "learning_curve": _digest(result.learning_curve),
        "diagnostics": _digest(result.diagnostics),
    }


def _case_id(case: tuple[str, str]) -> str:
    return "-".join(case)


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, str]]:
    probe = blas_probe()
    recorded = json.loads(GOLDEN_PATH.read_text())
    if probe not in recorded:
        pytest.skip(f"no golden training digests recorded for this BLAS kernel (probe {probe})")
    return recorded[probe]["cases"]


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_train_result_matches_golden(case, golden):
    actual = run_case(*case)
    expected = golden[_case_id(case)]
    drifted = sorted(k for k in expected if actual.get(k) != expected[k])
    assert set(actual) == set(expected)
    assert not drifted, f"{_case_id(case)}: results drifted in {drifted}"


if __name__ == "__main__":
    recorded = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    probe = blas_probe()
    core = os.environ.get("OPENBLAS_CORETYPE", "default")
    cases = {_case_id(case): run_case(*case) for case in CASES}
    entry = recorded.setdefault(probe, {"openblas_coretypes": [], "cases": cases})
    if entry["cases"] != cases:
        sys.exit(f"BLAS probe {probe} ({core}) reproduces the matmul probe of "
                 f"{entry['openblas_coretypes']} but not their training digests")
    entry["openblas_coretypes"] = sorted({*entry["openblas_coretypes"], core})
    GOLDEN_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {GOLDEN_PATH} for BLAS probe {probe} ({core})")
