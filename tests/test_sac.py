"""Tests for the SAC agent."""

from __future__ import annotations

import numpy as np
import pytest

from repro.airdrop import OBS_DIM
from repro.rl import SACAgent, SACConfig


def make_agent(**kw):
    defaults = dict(
        hidden_sizes=(32, 32),
        learning_starts=20,
        batch_size=32,
        buffer_capacity=2000,
    )
    defaults.update(kw)
    return SACAgent(2, 1, SACConfig(**defaults), seed=0)


class TestConfig:
    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            SACConfig(tau=0.0)

    def test_invalid_batch(self):
        with pytest.raises(ValueError):
            SACConfig(batch_size=0)


class TestActing:
    def test_warmup_actions_uniform(self):
        agent = make_agent(learning_starts=100)
        actions = agent.act(np.zeros((500, 2)))["action"]
        assert np.all(np.abs(actions) <= 1.0)
        # roughly uniform: std of U(-1,1) is 0.577
        assert abs(actions.std() - 0.577) < 0.1

    def test_post_warmup_actions_bounded(self):
        agent = make_agent(learning_starts=0)
        agent.total_env_steps = 10
        actions = agent.act(np.random.default_rng(0).standard_normal((50, 2)))["action"]
        assert np.all(np.abs(actions) < 1.0)

    def test_deterministic_is_repeatable(self):
        agent = make_agent()
        obs = np.ones((1, 2))
        a1 = agent.act(obs, deterministic=True)["action"]
        a2 = agent.act(obs, deterministic=True)["action"]
        assert np.allclose(a1, a2)


class TestDeterministicRowInvariance:
    """Deterministic acting is row-wise, whatever the batch size.

    A flat ``(n, k) @ W`` rounds differently from the one-row product, so
    these bitwise checks fail if the stacked matmul is dropped.
    """

    @pytest.mark.parametrize("n", [1, 2, 8, 30])
    def test_batch_row_equals_single_row(self, n):
        agent = SACAgent(OBS_DIM, 1, seed=n)
        obs = 3.0 * np.random.default_rng(n).standard_normal((n, OBS_DIM))
        out = agent.act(obs, deterministic=True)
        assert set(out) == {"action"}
        assert out["action"].shape == (n, 1)
        for i in range(n):
            single = agent.act(obs[i : i + 1], deterministic=True)["action"]
            assert np.array_equal(out["action"][i], single[0])

    def test_1d_observation_is_one_row(self):
        agent = SACAgent(OBS_DIM, 2, seed=0)
        obs = np.random.default_rng(0).standard_normal(OBS_DIM)
        action = agent.act(obs, deterministic=True)["action"]
        assert action.shape == (1, 2)
        assert np.array_equal(action, agent.act(obs[None], deterministic=True)["action"])


class TestUpdateMachinery:
    def drive(self, agent, n_steps, reward_fn, rng):
        obs = rng.standard_normal(2)
        for _ in range(n_steps):
            action = agent.act(obs[None])["action"][0]
            next_obs = rng.standard_normal(2)
            agent.observe(obs, action, reward_fn(obs, action), next_obs, False)
            if agent.ready_to_update():
                agent.update()
            obs = next_obs

    def test_ready_to_update_respects_warmup(self):
        agent = make_agent(learning_starts=50)
        rng = np.random.default_rng(0)
        for i in range(49):
            agent.observe(np.zeros(2), np.zeros(1), 0.0, np.zeros(2), False)
            assert not agent.ready_to_update()
        agent.observe(np.zeros(2), np.zeros(1), 0.0, np.zeros(2), False)
        assert agent.ready_to_update()

    def test_update_returns_stats(self):
        agent = make_agent()
        rng = np.random.default_rng(0)
        self.drive(agent, 60, lambda o, a: 0.0, rng)
        stats = agent.metrics()
        for key in ("q_loss", "policy_loss", "alpha", "entropy"):
            assert key in stats
        assert agent.n_updates > 0

    def test_learns_action_preference(self):
        """Reward = -(a - 0.5)^2: the policy mean must move toward 0.5."""
        agent = make_agent(learning_starts=64, batch_size=64)
        rng = np.random.default_rng(1)
        self.drive(agent, 1500, lambda o, a: -float((a[0] - 0.5) ** 2), rng)
        actions = agent.act(rng.standard_normal((100, 2)), deterministic=True)["action"]
        assert abs(actions.mean() - 0.5) < 0.25

    def test_q_values_track_constant_reward(self):
        """With constant reward 1 and gamma=0.9, Q* = 10 - alpha-entropy terms."""
        agent = make_agent(learning_starts=32, batch_size=64, alpha=0.0)
        rng = np.random.default_rng(2)
        self.drive(agent, 1200, lambda o, a: 1.0, rng)
        obs = rng.standard_normal((20, 2))
        actions = agent.act(obs, deterministic=True)["action"]
        q = agent.q1.forward(obs, actions)
        assert np.all(q > 4.0)  # converging toward 10

    def test_fixed_alpha_respected(self):
        agent = make_agent(alpha=0.123)
        assert agent.alpha == pytest.approx(0.123)
        rng = np.random.default_rng(0)
        self.drive(agent, 60, lambda o, a: 0.0, rng)
        assert agent.alpha == pytest.approx(0.123)

    def test_auto_alpha_adapts(self):
        agent = make_agent(alpha=None)
        before = agent.alpha
        rng = np.random.default_rng(0)
        self.drive(agent, 300, lambda o, a: 0.0, rng)
        assert agent.alpha != pytest.approx(before)

    def test_target_networks_track_slowly(self):
        agent = make_agent(tau=0.01)
        rng = np.random.default_rng(0)
        q1_target_before = agent.q1_target.net.state_dict()
        self.drive(agent, 100, lambda o, a: rng.standard_normal(), rng)
        moved = any(
            not np.allclose(q1_target_before[k], v)
            for k, v in agent.q1_target.net.state_dict().items()
        )
        assert moved
        # but targets lag behind the online nets
        online = agent.q1.net.parameters()
        target = agent.q1_target.net.parameters()
        diffs = [np.abs(o.value - t.value).max() for o, t in zip(online, target)]
        assert max(diffs) > 1e-6

    def test_policy_state_roundtrip(self):
        a = make_agent()
        b = make_agent()
        rng = np.random.default_rng(0)
        self.drive(a, 100, lambda o, a_: 1.0, rng)
        b.load_policy_state(a.policy_state())
        b.total_env_steps = a.total_env_steps  # skip warmup acting
        obs = rng.standard_normal((5, 2))
        assert np.allclose(
            a.act(obs, deterministic=True)["action"],
            b.act(obs, deterministic=True)["action"],
        )

    def test_observe_counts_steps(self):
        agent = make_agent()
        agent.observe(np.zeros(2), np.zeros(1), 0.0, np.zeros(2), False)
        assert agent.total_env_steps == 1
        assert len(agent.buffer) == 1

    def test_terminal_transitions_cut_bootstrap(self):
        """Q at terminal-flagged transitions must approach the raw reward."""
        agent = make_agent(
            learning_starts=16, batch_size=64, alpha=0.0, learning_rate=2e-3
        )
        rng = np.random.default_rng(3)
        obs = rng.standard_normal(2)
        for _ in range(1200):
            action = agent.act(obs[None])["action"][0]
            # every transition terminal with reward 2 → Q* = 2 exactly
            agent.observe(obs, action, 2.0, rng.standard_normal(2), True)
            if agent.ready_to_update():
                agent.update()
            obs = rng.standard_normal(2)
        test_obs = rng.standard_normal((20, 2))
        acts = agent.act(test_obs, deterministic=True)["action"]
        q = agent.q1.forward(test_obs, acts)
        assert np.allclose(q, 2.0, atol=0.8)
