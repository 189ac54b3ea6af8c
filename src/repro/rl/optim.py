"""First-order optimizers operating on :class:`~repro.rl.nn.Parameter` lists.

Updates are performed in place on ``Parameter.value`` so the networks keep
their array references (no re-wiring after each step). The parameter list
is held as a :class:`~repro.rl.nn.ParameterGroup`: each run of
back-to-back storage (a whole MLP, or one stand-alone parameter) is
updated with one set of element-wise ufuncs, which gives bit for bit the
per-parameter result at a fraction of the Python overhead.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .nn import Parameter, ParameterGroup

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer:
    """Base optimizer over a fixed parameter list."""

    def __init__(self, params: Iterable[Parameter], lr: float) -> None:
        self.params = ParameterGroup(params)
        if not self.params:
            raise ValueError("optimizer needs at least one parameter")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = float(lr)

    def step(self) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        self.params.zero_grad()


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(
        self, params: Iterable[Parameter], lr: float = 1e-2, momentum: float = 0.0
    ) -> None:
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = float(momentum)
        self._velocity = [np.zeros_like(run.values) for run in self.params.runs]

    def step(self) -> None:
        for run, v in zip(self.params.runs, self._velocity, strict=True):
            values = run.values
            if self.momentum:
                v *= self.momentum
                v += run.grads
                values -= self.lr * v
            else:
                values -= self.lr * run.grads


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 3e-4,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        super().__init__(params, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        self.beta1, self.beta2 = float(beta1), float(beta2)
        self.eps = float(eps)
        #: first/second moments, one flat array per run of ``params``
        self._m = [np.zeros_like(run.values) for run in self.params.runs]
        self._v = [np.zeros_like(run.values) for run in self.params.runs]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        step_size = self.lr * np.sqrt(bias2) / bias1
        # element-wise, so one run at a time equals one parameter at a time
        # as long as the operation order below is kept
        for run, m, v in zip(self.params.runs, self._m, self._v, strict=True):
            values, grads = run.values, run.grads
            m *= self.beta1
            m += (1.0 - self.beta1) * grads
            v *= self.beta2
            v += (1.0 - self.beta2) * (grads * grads)
            values -= step_size * m / (np.sqrt(v) + self.eps)

    @property
    def t(self) -> int:
        """Number of optimizer steps taken."""
        return self._t
