"""Tests for the PPO agent."""

from __future__ import annotations

import numpy as np
import pytest

from repro.airdrop import OBS_DIM
from repro.rl import PPOAgent, PPOConfig


def collect_rollout(agent, buf, env_step, obs, n_steps):
    """Drive a toy scalar environment through the buffer."""
    for _ in range(n_steps):
        out = agent.act(obs)
        next_obs, rewards, terms = env_step(obs, out["action"])
        buf.add(
            obs,
            out["action"],
            out["log_prob"],
            rewards,
            out["value"],
            terms,
            np.zeros_like(terms),
            np.zeros(len(obs)),
        )
        obs = next_obs
    buf.finish(agent.value(obs))
    return obs


class TestConfig:
    def test_invalid_clip_range(self):
        with pytest.raises(ValueError):
            PPOConfig(clip_range=0.0)

    def test_invalid_epochs(self):
        with pytest.raises(ValueError):
            PPOConfig(n_epochs=0)


class TestActing:
    def test_act_shapes(self):
        agent = PPOAgent(4, 2, seed=0)
        out = agent.act(np.zeros((7, 4)))
        assert out["action"].shape == (7, 2)
        assert out["log_prob"].shape == (7,)
        assert out["value"].shape == (7,)

    def test_deterministic_act_is_mode(self):
        agent = PPOAgent(4, 2, seed=0)
        a1 = agent.act(np.ones((1, 4)), deterministic=True)["action"]
        a2 = agent.act(np.ones((1, 4)), deterministic=True)["action"]
        assert np.allclose(a1, a2)

    def test_stochastic_act_varies(self):
        agent = PPOAgent(4, 2, seed=0)
        a1 = agent.act(np.ones((1, 4)))["action"]
        a2 = agent.act(np.ones((1, 4)))["action"]
        assert not np.allclose(a1, a2)

    def test_log_prob_consistent_with_distribution(self):
        agent = PPOAgent(3, 1, seed=1)
        obs = np.random.default_rng(0).standard_normal((5, 3))
        out = agent.act(obs)
        from repro.rl import DiagGaussian

        dist = DiagGaussian(agent.actor.forward(obs), agent.log_std.value)
        assert np.allclose(out["log_prob"], dist.log_prob(out["action"]))


class TestDeterministicRowInvariance:
    """Deterministic acting is row-wise, whatever the batch size.

    A flat ``(n, k) @ W`` rounds differently from the one-row product, so
    these bitwise checks fail if the stacked matmul is dropped.
    """

    @pytest.mark.parametrize("n", [1, 2, 8, 30])
    def test_batch_row_equals_single_row(self, n):
        agent = PPOAgent(OBS_DIM, 1, seed=n)
        obs = 3.0 * np.random.default_rng(n).standard_normal((n, OBS_DIM))
        out = agent.act(obs, deterministic=True)
        assert set(out) == {"action"}
        assert out["action"].shape == (n, 1)
        for i in range(n):
            single = agent.act(obs[i : i + 1], deterministic=True)["action"]
            assert np.array_equal(out["action"][i], single[0])

    def test_1d_observation_is_one_row(self):
        agent = PPOAgent(OBS_DIM, 2, seed=0)
        obs = np.random.default_rng(0).standard_normal(OBS_DIM)
        action = agent.act(obs, deterministic=True)["action"]
        assert action.shape == (1, 2)
        assert np.array_equal(action, agent.act(obs[None], deterministic=True)["action"])


class TestPolicyState:
    def test_snapshot_roundtrip(self):
        a = PPOAgent(4, 1, seed=0)
        b = PPOAgent(4, 1, seed=99)
        b.load_policy_state(a.policy_state())
        obs = np.random.default_rng(0).standard_normal((3, 4))
        assert np.allclose(
            a.act(obs, deterministic=True)["action"],
            b.act(obs, deterministic=True)["action"],
        )
        assert np.allclose(a.value(obs), b.value(obs))

    def test_snapshot_is_a_copy(self):
        a = PPOAgent(4, 1, seed=0)
        snap = a.policy_state()
        key = next(iter(snap))
        snap[key][...] = 1234.0
        assert not np.allclose(a.policy_state()[key], 1234.0)


class TestUpdate:
    def test_update_improves_simple_task(self):
        """Reward = -action²·(1+obs²); optimum is action → 0."""
        agent = PPOAgent(1, 1, PPOConfig(learning_rate=3e-3), seed=0)
        n_envs, n_steps = 8, 64
        rng = np.random.default_rng(0)

        def env_step(obs, actions):
            rewards = -np.sum(actions**2, axis=-1) * (1 + obs[:, 0] ** 2)
            return rng.standard_normal((n_envs, 1)), rewards, np.zeros(n_envs)

        obs = rng.standard_normal((n_envs, 1))
        initial_scale = float(np.exp(agent.log_std.value[0]))
        before = None
        for it in range(15):
            buf = agent.make_buffer(n_steps, n_envs)
            obs = collect_rollout(agent, buf, env_step, obs, n_steps)
            stats = agent.update(buf)
            if before is None:
                before = stats
        # the policy must shrink its actions toward zero
        test_obs = rng.standard_normal((100, 1))
        actions = agent.act(test_obs, deterministic=True)["action"]
        assert np.mean(np.abs(actions)) < 0.1
        # exploration noise must also shrink
        assert float(np.exp(agent.log_std.value[0])) < initial_scale

    def test_update_returns_stats(self):
        agent = PPOAgent(2, 1, seed=0)
        buf = agent.make_buffer(16, 2)
        rng = np.random.default_rng(1)

        def env_step(obs, actions):
            return rng.standard_normal((2, 2)), np.zeros(2), np.zeros(2)

        collect_rollout(agent, buf, env_step, rng.standard_normal((2, 2)), 16)
        stats = agent.update(buf)
        for key in ("policy_loss", "value_loss", "entropy", "approx_kl", "clip_fraction"):
            assert key in stats
        assert agent.n_updates > 0
        assert agent.metrics() == stats

    def test_value_learning(self):
        """Critic must fit a constant-reward value function."""
        agent = PPOAgent(2, 1, PPOConfig(learning_rate=1e-2, gamma=0.01), seed=0)
        rng = np.random.default_rng(2)

        def env_step(obs, actions):
            return rng.standard_normal((4, 2)), np.full(4, 3.0), np.zeros(4)

        obs = rng.standard_normal((4, 2))
        for _ in range(20):
            buf = agent.make_buffer(32, 4)
            obs = collect_rollout(agent, buf, env_step, obs, 32)
            stats = agent.update(buf)
        # with gamma≈0, returns ≈ rewards == 3
        values = agent.value(rng.standard_normal((50, 2)))
        assert np.allclose(values, 3.0, atol=0.5)

    def test_target_kl_early_stop(self):
        agent = PPOAgent(2, 1, PPOConfig(target_kl=1e-9, n_epochs=50), seed=0)
        rng = np.random.default_rng(3)

        def env_step(obs, actions):
            return rng.standard_normal((2, 2)), rng.standard_normal(2), np.zeros(2)

        buf = agent.make_buffer(32, 2)
        collect_rollout(agent, buf, env_step, rng.standard_normal((2, 2)), 32)
        agent.update(buf)
        # 50 epochs x 4 minibatches would be 200 updates; early stop cuts it
        assert agent.n_updates < 200

    def test_update_determinism(self):
        def run():
            agent = PPOAgent(2, 1, seed=42)
            rng = np.random.default_rng(7)

            def env_step(obs, actions):
                return rng.standard_normal((2, 2)), obs[:, 0], np.zeros(2)

            buf = agent.make_buffer(16, 2)
            collect_rollout(agent, buf, env_step, np.ones((2, 2)), 16)
            agent.update(buf)
            return agent.policy_state()

        s1, s2 = run(), run()
        for key in s1:
            assert np.allclose(s1[key], s2[key]), key
