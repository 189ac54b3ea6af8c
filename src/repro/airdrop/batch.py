"""Natively batched airdrop environment: ``N`` episodes per step() call.

:class:`AirdropVectorEnv` is the vectorized twin of
:class:`~repro.airdrop.env.AirdropEnv` wrapped in ``TimeLimit`` inside a
:class:`~repro.envs.SyncVectorEnv`: one call integrates all ``N`` canopy
states through the Runge–Kutta tableau as a single ``(N, 9)`` batch
instead of looping Python-level sub-envs. The API (auto-reset,
``final_observation`` / ``episode`` info conventions, episode stats) is
the SyncVectorEnv contract, so the two are drop-in interchangeable.

Exactness guarantee
-------------------
Row ``i`` of a batched step is **bit-identical** to stepping a serial
``make("Airdrop-v0")`` env seeded the same way:

* the dynamics (:func:`~repro.airdrop.dynamics.parafoil_rhs_batch`) are
  pure elementwise ufuncs;
* the tableau's batched stage accumulation is a stacked matrix-vector
  product that reduces over the stage axis exactly like the serial
  ``a @ k`` (verified bitwise in ``tests/test_vector_airdrop.py``);
* randomness stays per-env: each sub-env owns its own
  :class:`numpy.random.Generator` and :class:`~repro.airdrop.wind.WindModel`,
  consumed in the same order as the serial path;
* touchdown interpolation / landing scores are evaluated per landed env
  with the identical scalar code.

This is why the frameworks can run every trial through ``make_vec``: a
training run at ``n_envs=1`` keeps the historical single-env results
byte for byte (pinned by ``tests/test_train_golden.py``), and
``AirdropEnv`` stays the scalar reference ``tests/test_vector_airdrop.py``
compares against.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..envs import Box, EpisodeStats
from .dynamics import (
    IP,
    IPHI,
    IPSI,
    IVH,
    IVZ,
    IX,
    IY,
    IZ,
    STATE_DIM,
    IOMEGA,
    ParafoilParams,
    make_batch_rhs,
    trim_glide_ratio,
    turn_radius,
)
from .env import OBS_DIM, _ALTITUDE_SCALE, _POSITION_SCALE
from .integrators import get_integrator
from .reward import RewardConfig, interpolate_touchdown, landing_score, potential
from .wind import WindConfig, WindModel

__all__ = ["AirdropVectorEnv"]


class AirdropVectorEnv:
    """``num_envs`` airdrop episodes stepped in lockstep as one batch.

    Constructor parameters mirror :class:`~repro.airdrop.env.AirdropEnv`
    plus ``num_envs`` and ``max_episode_steps`` (the registry's default
    600-step horizon, applied like a per-env ``TimeLimit`` wrapper).
    """

    def __init__(
        self,
        num_envs: int,
        rk_order: int = 5,
        dt: float = 1.0,
        n_substeps: int = 1,
        altitude_limits: tuple[float, float] = (30.0, 1000.0),
        wind: bool = False,
        gusts: bool = False,
        gust_probability: float = 0.05,
        wind_speed: float = 3.0,
        wind_direction_deg: float = 90.0,
        params: ParafoilParams | None = None,
        reward_config: RewardConfig | None = None,
        max_episode_steps: int | None = 600,
    ) -> None:
        if num_envs < 1:
            raise ValueError("num_envs must be >= 1")
        if dt <= 0:
            raise ValueError("dt must be positive")
        if n_substeps < 1:
            raise ValueError("n_substeps must be >= 1")
        low, high = float(altitude_limits[0]), float(altitude_limits[1])
        if not 0 < low <= high:
            raise ValueError("altitude_limits must satisfy 0 < low <= high")

        self.num_envs = int(num_envs)
        self.rk_order = int(rk_order)
        self.integrator = get_integrator(self.rk_order)
        self.dt = float(dt)
        self.n_substeps = int(n_substeps)
        self.altitude_limits = (low, high)
        self.params = params or ParafoilParams()
        self.reward_config = reward_config or RewardConfig()
        self.max_episode_steps = None if max_episode_steps is None else int(max_episode_steps)
        self.target = np.zeros(2)

        config = WindConfig(
            enable_wind=bool(wind),
            wind_speed=float(wind_speed),
            wind_direction_deg=float(wind_direction_deg),
            enable_gusts=bool(gusts),
            gust_probability=float(gust_probability),
        )
        self.wind_models = [WindModel(config) for _ in range(self.num_envs)]
        #: with gusts off the wind is a constant vector and consumes no
        #: randomness, so the per-env update loop can be skipped entirely
        self._static_wind = None if config.enable_gusts else config.mean_wind

        self.single_observation_space = Box(low=-np.inf, high=np.inf, shape=(OBS_DIM,))
        self.single_action_space = Box(low=-1.0, high=1.0, shape=(1,))
        self.observation_space = Box(low=-np.inf, high=np.inf, shape=(self.num_envs, OBS_DIM))
        self.action_space = Box(low=-1.0, high=1.0, shape=(self.num_envs, 1))

        self.stats = EpisodeStats()
        self._rngs: list[np.random.Generator | None] = [None] * self.num_envs
        self._states: np.ndarray | None = None
        self._elapsed = np.zeros(self.num_envs, dtype=np.int64)
        self._episode_rhs_evals = np.zeros(self.num_envs, dtype=np.int64)
        self._episode_returns = np.zeros(self.num_envs, dtype=np.float64)
        self._episode_lengths = np.zeros(self.num_envs, dtype=np.int64)

    # ------------------------------------------------------------------ API
    @property
    def rhs_evals_per_step(self) -> int:
        """Deterministic RHS-evaluation cost of one control step per env."""
        return self.integrator.n_stages * self.n_substeps

    def reset(
        self, *, seed: int | Sequence[int | None] | None = None
    ) -> tuple[np.ndarray, list[dict]]:
        """Reset every sub-env.

        ``seed`` may be ``None``, a scalar (fanned out as ``seed + index``,
        the SyncVectorEnv convention) or a sequence of per-env seeds.
        """
        if seed is None or isinstance(seed, (int, np.integer)):
            seeds: list[int | None] = [
                None if seed is None else int(seed) + i for i in range(self.num_envs)
            ]
        else:
            seeds = [None if s is None else int(s) for s in seed]
            if len(seeds) != self.num_envs:
                raise ValueError(
                    f"got {len(seeds)} seeds for {self.num_envs} sub-envs"
                )
        if self._states is None:
            self._states = np.zeros((self.num_envs, STATE_DIM), dtype=np.float64)
        infos = [self._reset_env(i, seeds[i]) for i in range(self.num_envs)]
        self._episode_returns[:] = 0.0
        self._episode_lengths[:] = 0
        return self._observe_batch(self._states), infos

    def step(
        self, actions: np.ndarray | Sequence[Any]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[dict]]:
        """Step all sub-envs as one batch; finished episodes auto-reset."""
        states = self._states
        if states is None:
            raise RuntimeError("cannot step before reset()")
        n = self.num_envs
        acts = np.asarray(actions, dtype=np.float64).reshape(n, -1)
        u = np.clip(acts[:, 0], -1.0, 1.0)

        if self._static_wind is not None:
            winds = np.broadcast_to(self._static_wind, (n, 2))
        else:
            winds = np.empty((n, 2), dtype=np.float64)
            for i, model in enumerate(self.wind_models):
                winds[i] = model.update(self._rngs[i], self.dt)  # type: ignore[arg-type]
        rhs = make_batch_rhs(u, winds, self.params)

        prev = states.copy()
        shaping = self.reward_config.shaping
        if shaping:
            phi_prev = -np.hypot(
                prev[:, IX] - self.target[0], prev[:, IY] - self.target[1]
            ) / self.reward_config.distance_scale

        h = self.dt / self.n_substeps
        y = prev.copy()
        crossed = np.zeros(n, dtype=bool)
        before = prev.copy()
        landed_y = np.zeros_like(prev)
        for _ in range(self.n_substeps):
            y_before = y
            y = self.integrator.step(rhs, 0.0, y, h)
            newly = ~crossed & (y[:, IZ] <= 0.0)
            if newly.any():
                before[newly] = y_before[newly]
                landed_y[newly] = y[newly]
                crossed |= newly
                if crossed.all():
                    break
        rhs_evals = self.rhs_evals_per_step
        self._episode_rhs_evals += rhs_evals

        y_eff = np.where(crossed[:, None], landed_y, y)
        finite = np.isfinite(y_eff).all(axis=1)
        fail = ~finite
        land = crossed & finite

        rewards = np.zeros(n, dtype=np.float64)
        terms = np.zeros(n, dtype=bool)
        truncs = np.zeros(n, dtype=bool)
        infos: list[dict] = [
            {"rhs_evals": rhs_evals, "wind": winds[i].copy()}
            for i in range(n)
        ]

        fly = ~fail & ~land
        if fly.any():
            states[fly] = y[fly]
            if shaping:
                phi_new = -np.hypot(
                    y[:, IX] - self.target[0], y[:, IY] - self.target[1]
                ) / self.reward_config.distance_scale
                rewards[fly] = self.reward_config.shaping_coef * (
                    phi_new[fly] - phi_prev[fly]
                )

        for i in np.flatnonzero(fail):
            states[i] = np.where(np.isfinite(prev[i]), prev[i], 0.0)
            rewards[i] = -10.0
            terms[i] = True
            infos[i]["numerical_failure"] = True
            infos[i]["landing_score"] = -10.0
            infos[i]["miss_distance"] = 10.0 * self.reward_config.distance_scale

        for i in np.flatnonzero(land):
            x_td, y_td = interpolate_touchdown(before[i], landed_y[i])
            score = landing_score(x_td, y_td, self.target, self.reward_config)
            final_state = landed_y[i].copy()
            final_state[IX], final_state[IY], final_state[IZ] = x_td, y_td, 0.0
            states[i] = final_state
            reward = score
            if shaping:
                phi_land = potential(x_td, y_td, self.target, self.reward_config)
                reward += self.reward_config.shaping_coef * (phi_land - float(phi_prev[i]))
            rewards[i] = float(reward)
            terms[i] = True
            infos[i]["landing_score"] = score
            infos[i]["miss_distance"] = -score * self.reward_config.distance_scale
            infos[i]["touchdown"] = (x_td, y_td)
            infos[i]["episode_rhs_evals"] = int(self._episode_rhs_evals[i])

        # TimeLimit semantics, applied per env like the serial wrapper.
        self._elapsed += 1
        if self.max_episode_steps is not None:
            over = (self._elapsed >= self.max_episode_steps) & ~terms
            for i in np.flatnonzero(over):
                truncs[i] = True
                infos[i].setdefault("TimeLimit.truncated", True)

        observations = self._observe_batch(states)
        self._episode_returns += rewards
        self._episode_lengths += 1
        done = terms | truncs
        for i in np.flatnonzero(done):
            infos[i]["final_observation"] = observations[i].copy()
            infos[i]["episode"] = {
                "r": float(self._episode_returns[i]),
                "l": int(self._episode_lengths[i]),
            }
            self.stats.add(self._episode_returns[i], self._episode_lengths[i])
            self._episode_returns[i] = 0.0
            self._episode_lengths[i] = 0
            self._reset_env(i, None)
            observations[i] = self._observe_batch(states[i : i + 1])[0]
        return observations, rewards, terms, truncs, infos

    def close(self) -> None:
        pass

    def __len__(self) -> int:
        return self.num_envs

    def __repr__(self) -> str:
        return (
            f"AirdropVectorEnv(num_envs={self.num_envs}, rk_order={self.rk_order}, "
            f"dt={self.dt})"
        )

    # ------------------------------------------------------------ internals
    def _reset_env(self, index: int, seed: int | None) -> dict[str, Any]:
        """Reset one sub-env in place, mirroring ``AirdropEnv.reset``."""
        if seed is not None or self._rngs[index] is None:
            self._rngs[index] = np.random.default_rng(seed)
        rng = self._rngs[index]
        assert rng is not None

        z0 = float(rng.uniform(*self.altitude_limits))
        glide = trim_glide_ratio(self.params)
        max_range = glide * z0
        min_radius = min(2.0 * turn_radius(self.params), 0.45 * max_range)
        radius = float(rng.uniform(min_radius, 0.65 * max_range))
        bearing = float(rng.uniform(0.0, 2.0 * np.pi))
        psi0 = float(rng.uniform(-np.pi, np.pi))

        state = np.zeros(STATE_DIM, dtype=np.float64)
        state[IX] = radius * np.cos(bearing)
        state[IY] = radius * np.sin(bearing)
        state[IZ] = z0
        state[IPSI] = psi0
        state[IVH] = self.params.v_trim
        state[IVZ] = self.params.vz_trim
        assert self._states is not None
        self._states[index] = state
        self._elapsed[index] = 0
        self._episode_rhs_evals[index] = 0
        self.wind_models[index].reset()
        return {"drop_altitude": z0, "drop_radius": radius}

    def _observe_batch(self, states: np.ndarray) -> np.ndarray:
        """Batched twin of ``AirdropEnv._observe`` (elementwise, bit-exact)."""
        dx = states[:, IX] - self.target[0]
        dy = states[:, IY] - self.target[1]
        dist = np.hypot(dx, dy)
        bearing_to_target = np.arctan2(-dy, -dx)
        rel = bearing_to_target - states[:, IPSI]
        glide_range = trim_glide_ratio(self.params) * np.maximum(states[:, IZ], 1e-6)
        out = np.empty((states.shape[0], OBS_DIM), dtype=np.float64)
        out[:, 0] = dx / _POSITION_SCALE
        out[:, 1] = dy / _POSITION_SCALE
        out[:, 2] = states[:, IZ] / _ALTITUDE_SCALE
        out[:, 3] = np.sin(states[:, IPSI])
        out[:, 4] = np.cos(states[:, IPSI])
        out[:, 5] = states[:, IOMEGA] / self.params.omega_max
        out[:, 6] = states[:, IVH] / self.params.v_trim
        out[:, 7] = states[:, IVZ] / self.params.vz_trim
        out[:, 8] = states[:, IPHI]
        out[:, 9] = states[:, IP]
        out[:, 10] = np.sin(rel)
        out[:, 11] = np.cos(rel)
        out[:, 12] = np.minimum(dist / glide_range, 3.0)
        return out
