"""Exploratory methods (methodology step 3, §III-B-c).

An :class:`Explorer` decides which configurations to evaluate. The paper
uses Random Search; Grid Search and Latin-Hypercube sampling are provided
as alternatives, and :mod:`repro.core.tpe` adds the Optuna/Hyperopt-style
model-based sampler suggested in §III-C.

Protocol: the campaign repeatedly calls :meth:`Explorer.ask`; after
evaluating a configuration it calls :meth:`Explorer.tell` with the
measured objectives so adaptive explorers can steer. ``ask`` returns
``None`` when the budget is exhausted.
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

from .configuration import Configuration
from .parameters import Categorical, Float, Integer, ParameterSpace

__all__ = ["Explorer", "RandomSearch", "GridSearch", "LatinHypercube"]


class Explorer:
    """Base class for search strategies over a parameter space."""

    def __init__(self, space: ParameterSpace, seed: int | None = None) -> None:
        self.space = space
        self.rng = np.random.default_rng(seed)
        self._asked = 0

    def ask(self) -> Configuration | None:
        """Propose the next configuration, or ``None`` when done."""
        raise NotImplementedError

    def tell(self, config: Configuration, objectives: dict[str, float]) -> None:
        """Feed back measured objectives (no-op for non-adaptive methods)."""

    def mark_pending(self, config: Configuration) -> None:
        """Note that ``config`` was dispatched but has no result yet.

        Parallel campaigns call this between ``ask`` and ``tell`` so
        adaptive explorers can account for in-flight evaluations instead
        of proposing near-identical configurations to every concurrent
        worker (see :class:`~repro.core.tpe.TPESampler`'s constant-liar
        imputation). No-op for non-adaptive methods.
        """

    def clear_pending(self, config: Configuration) -> None:
        """Forget a :meth:`mark_pending` (result arrived or was abandoned)."""

    def _next_id(self) -> int:
        self._asked += 1
        return self._asked


class RandomSearch(Explorer):
    """Uniform random combinations of parameters (Bergstra & Bengio, 2012).

    The paper's chosen method: "by leveraging random combinations, the
    system might propose configurations which were not considered
    initially" (§III-B-c). Duplicate configurations are rejected by
    default (finite spaces only sustain ``grid_size`` distinct points).
    """

    def __init__(
        self,
        space: ParameterSpace,
        n_trials: int,
        seed: int | None = None,
        dedupe: bool = True,
        max_resample: int = 200,
    ) -> None:
        super().__init__(space, seed)
        if n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        self.n_trials = int(n_trials)
        self.dedupe = bool(dedupe)
        self.max_resample = int(max_resample)
        self._seen: set[tuple] = set()

    def ask(self) -> Configuration | None:
        if self._asked >= self.n_trials:
            return None
        for _ in range(self.max_resample):
            config = Configuration(self.space.sample(self.rng))
            if not self.dedupe or config.key() not in self._seen:
                self._seen.add(config.key())
                return config.with_trial_id(self._next_id())
        # space exhausted: accept the duplicate rather than spin forever
        return config.with_trial_id(self._next_id())


class GridSearch(Explorer):
    """Exhaustive sweep of the (finite) parameter grid, in grid order."""

    def __init__(
        self, space: ParameterSpace, max_trials: int | None = None, seed: int | None = None
    ) -> None:
        super().__init__(space, seed)
        self._iterator: Iterator[dict[str, Any]] = space.grid()
        self.max_trials = max_trials

    def ask(self) -> Configuration | None:
        if self.max_trials is not None and self._asked >= self.max_trials:
            return None
        try:
            values = next(self._iterator)
        except StopIteration:
            return None
        return Configuration(values).with_trial_id(self._next_id())


class LatinHypercube(Explorer):
    """Stratified sampling: each numeric axis is cut into ``n_trials``
    bins visited exactly once; categorical axes get balanced shuffles.

    Better coverage than pure random search at equal budget on spaces with
    several numeric dimensions.
    """

    def __init__(self, space: ParameterSpace, n_trials: int, seed: int | None = None) -> None:
        super().__init__(space, seed)
        if n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        self.n_trials = int(n_trials)
        self._plan = self._build_plan()
        self._cursor = 0

    def _build_plan(self) -> list[dict[str, Any]]:
        n = self.n_trials
        columns: dict[str, list[Any]] = {}
        for p in self.space:
            if isinstance(p, Float):
                # one sample per stratum, shuffled
                edges = np.linspace(0.0, 1.0, n + 1)
                u = self.rng.uniform(edges[:-1], edges[1:])
                self.rng.shuffle(u)
                if p.log:
                    lo, hi = np.log(p.low), np.log(p.high)
                    raw = [float(np.exp(lo + ui * (hi - lo))) for ui in u]
                else:
                    raw = [float(p.low + ui * (p.high - p.low)) for ui in u]
                columns[p.name] = [min(p.high, max(p.low, v)) for v in raw]
            elif isinstance(p, Integer):
                lattice = np.round(np.linspace(p.low, p.high, n)).astype(int)
                self.rng.shuffle(lattice)
                columns[p.name] = [int(v) for v in lattice]
            elif isinstance(p, Categorical):
                reps = int(np.ceil(n / len(p.choices)))
                tiled = (list(p.choices) * reps)[:n]
                self.rng.shuffle(tiled)
                columns[p.name] = tiled
            else:  # pragma: no cover - future parameter types
                columns[p.name] = [p.sample(self.rng) for _ in range(n)]
        plan = [{name: col[i] for name, col in columns.items()} for i in range(n)]
        # repair constraint violations by local resampling
        repaired = []
        for values in plan:
            if all(c(values) for c in self.space.constraints):
                repaired.append(values)
            else:
                repaired.append(self.space.sample(self.rng))
        return repaired

    def ask(self) -> Configuration | None:
        if self._cursor >= len(self._plan):
            return None
        values = self._plan[self._cursor]
        self._cursor += 1
        return Configuration(values).with_trial_id(self._next_id())
