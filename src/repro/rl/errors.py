"""Typed numerical-failure errors for the learning substrate.

A training run that produces a non-finite loss or gradient is
unrecoverable: Adam moments are already poisoned, every later update
multiplies NaNs through the network, and the trial would quietly report
garbage metrics. Raising :class:`DivergenceError` *before* the optimizer
step turns the blow-up into a structured trial failure the campaign can
journal, retry and report — with the update index and the offending
quantity attached as JSON-safe ``extras``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .nn import Parameter, ParameterGroup

__all__ = ["DivergenceError", "check_finite_update"]


class DivergenceError(RuntimeError):
    """Training diverged: a loss or gradient went non-finite.

    ``extras`` carries JSON-primitive context (algorithm, update index,
    which quantity blew up and its value rendered as a string) that the
    executor layer copies into the failed trial's record.
    """

    def __init__(self, algorithm: str, n_updates: int, quantity: str, value: float) -> None:
        super().__init__(
            f"{algorithm} diverged at update {n_updates}: "
            f"{quantity} is non-finite ({value!r})"
        )
        self.extras = {
            "algorithm": algorithm,
            "n_updates": int(n_updates),
            "quantity": quantity,
            "value": repr(float(value)),
            "failure_stage": "divergence",
        }


def check_finite_update(
    algorithm: str,
    n_updates: int,
    losses: dict[str, float],
    params: Iterable[Parameter],
) -> None:
    """Guard one optimizer step: raise on any non-finite loss/gradient.

    Called between the backward pass and ``optimizer.step()`` so a
    divergence never contaminates the optimizer state. ``params`` are
    :class:`~repro.rl.nn.Parameter` objects whose ``.grad`` is checked;
    pass the optimizer's :class:`~repro.rl.nn.ParameterGroup` so the check
    is one pass per run of back-to-back storage. The error names the first
    parameter, in order, holding a non-finite gradient.
    """
    for name, value in losses.items():
        if not np.isfinite(value):
            raise DivergenceError(algorithm, n_updates, name, float(value))
    for run in ParameterGroup.of(params).runs:
        finite = np.isfinite(run.grads)
        if finite.all():
            continue
        first = int(np.argmin(finite))  # first non-finite element of the run
        for param, (start, stop) in zip(run.params, run.bounds, strict=True):
            if start <= first < stop:
                raise DivergenceError(
                    algorithm, n_updates, f"grad[{param.name}]", float(run.grads[first])
                )
