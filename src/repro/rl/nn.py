"""Minimal neural-network layer stack with manual backpropagation.

The RL algorithms (PPO, SAC) need small multilayer perceptrons with exact
gradients. Rather than depending on a deep-learning framework (a gated
dependency in this reproduction) we implement the forward/backward passes
directly on numpy arrays. Everything is batched: inputs are
``(batch, features)`` and the backward pass is a single matrix product per
layer, per the HPC guide's vectorization rules.

Design:

* :class:`Parameter` — a named array plus its gradient accumulator. The
  optimizer updates ``value`` in place so layer references stay valid.
* :class:`Dense`, :class:`Tanh`, :class:`ReLU` — layers with
  ``forward``/``backward``.
* :class:`MLP` — a layer pipeline with convenience constructors, gradient
  zeroing, parameter iteration and state-dict (de)serialization. An MLP
  stores all its parameters in one contiguous value buffer and one grad
  buffer; each ``Parameter.value``/``.grad`` is a reshaped view into them.
* :class:`ParameterGroup` — a parameter list split into runs of
  back-to-back storage, so zeroing, clipping, finiteness checks and
  optimizer steps cost a few large ufuncs per run, not a set per
  parameter.

The backward pass of each layer consumes ``dL/d(output)`` and returns
``dL/d(input)``, accumulating parameter gradients as a side effect — so
input gradients (needed by SAC's policy loss, which differentiates the
Q-network with respect to the action input) come for free. The caller
says which of the two it needs: the first layer's input gradient and,
when only ``∂Q/∂a`` is wanted, the parameter gradients are skipped.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

__all__ = [
    "Parameter",
    "ParameterGroup",
    "Layer",
    "Dense",
    "Tanh",
    "ReLU",
    "Identity",
    "MLP",
    "orthogonal_init",
]


class Parameter:
    """A trainable array with an accumulated gradient.

    An :class:`MLP` rebinds ``value`` and ``grad`` to views into its flat
    buffers; everything else updates them in place only.
    """

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray) -> None:
        self.name = name
        # C-contiguous storage: cache-friendly matmuls and view-safe ravel().
        self.value = np.ascontiguousarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Parameter({self.name}, shape={self.value.shape})"


def orthogonal_init(
    shape: tuple[int, int], gain: float, rng: np.random.Generator
) -> np.ndarray:
    """Orthogonal weight initialization (the standard PPO choice)."""
    a = rng.standard_normal(shape)
    if shape[0] < shape[1]:
        a = a.T
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))  # deterministic sign convention
    if shape[0] < shape[1]:
        q = q.T
    return gain * q[: shape[0], : shape[1]]


class Layer:
    """Base layer: ``forward`` caches what ``backward`` needs.

    ``backward`` accumulates parameter gradients only when
    ``param_grads`` is true; layers without parameters ignore the flag.
    It returns ``dL/d(input)``, or ``None`` where the caller asked a
    :class:`Dense` layer not to compute it.
    """

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dout: np.ndarray, param_grads: bool = True) -> np.ndarray | None:
        raise NotImplementedError

    def parameters(self) -> list[Parameter]:
        return []


class Dense(Layer):
    """Affine layer ``y = x @ W + b``."""

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        rng: np.random.Generator,
        gain: float = 2.0**0.5,
        name: str = "dense",
    ) -> None:
        self.w = Parameter(f"{name}.w", orthogonal_init((in_dim, out_dim), gain, rng))
        self.b = Parameter(f"{name}.b", np.zeros(out_dim))
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return x @ self.w.value + self.b.value

    def backward(
        self, dout: np.ndarray, param_grads: bool = True, input_grad: bool = True
    ) -> np.ndarray | None:
        """Accumulate ``dL/dW``/``dL/db`` and return ``dL/dx``, each on request."""
        if self._x is None:
            raise RuntimeError("backward called before forward")
        if param_grads:
            self.w.grad += self._x.T @ dout
            self.b.grad += dout.sum(axis=0)
        return dout @ self.w.value.T if input_grad else None

    def parameters(self) -> list[Parameter]:
        return [self.w, self.b]


class Tanh(Layer):
    def __init__(self) -> None:
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._y = np.tanh(x)
        return self._y

    def backward(self, dout: np.ndarray, param_grads: bool = True) -> np.ndarray:
        assert self._y is not None, "backward called before forward"
        return dout * (1.0 - self._y * self._y)


class ReLU(Layer):
    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # bit-equal to np.where(x > 0, x, 0.0) for every finite x (-0.0
        # included) at a third of the cost; a NaN propagates instead of
        # being zeroed, so a diverged pre-activation reaches the finite check
        self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, dout: np.ndarray, param_grads: bool = True) -> np.ndarray:
        assert self._mask is not None, "backward called before forward"
        return dout * self._mask


class Identity(Layer):
    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, dout: np.ndarray, param_grads: bool = True) -> np.ndarray:
        return dout


_ACTIVATIONS: dict[str, Callable[[], Layer]] = {
    "tanh": Tanh,
    "relu": ReLU,
    "identity": Identity,
}


class MLP:
    """A multilayer perceptron with manual backprop.

    Parameters
    ----------
    sizes:
        Layer widths including input and output,
        e.g. ``(obs_dim, 64, 64, act_dim)``.
    activation:
        Hidden activation name (``'tanh'`` or ``'relu'``).
    out_gain:
        Orthogonal gain of the final layer (0.01 for policy heads, 1.0 for
        value heads — the usual PPO trick).
    rng:
        Generator used for weight initialization.
    """

    def __init__(
        self,
        sizes: Sequence[int],
        rng: np.random.Generator,
        activation: str = "tanh",
        out_gain: float = 1.0,
        name: str = "mlp",
    ) -> None:
        if len(sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.sizes = tuple(int(s) for s in sizes)
        self.layers: list[Layer] = []
        n_affine = len(self.sizes) - 1
        for i in range(n_affine):
            last = i == n_affine - 1
            gain = out_gain if last else np.sqrt(2.0)
            dense = Dense(self.sizes[i], self.sizes[i + 1], rng, gain=gain, name=f"{name}.{i}")
            if i == 0:
                self._input_layer = dense
            self.layers.append(dense)
            if not last:
                self.layers.append(_ACTIVATIONS[activation]())
        # one contiguous value buffer and one grad buffer; every Parameter is
        # rebound to reshaped views into them. Updates stay in place, so the
        # views (and the layers holding the Parameters) stay valid.
        params = self.parameters()
        total = 0
        for p in params:
            total += p.value.size
        self._values = np.empty(total)
        self._grads = np.zeros(total)
        offset = 0
        for p in params:
            end = offset + p.value.size
            value = self._values[offset:end].reshape(p.value.shape)
            value[...] = p.value
            p.value = value
            p.grad = self._grads[offset:end].reshape(p.value.shape)
            offset = end

    @property
    def in_dim(self) -> int:
        return self.sizes[0]

    @property
    def out_dim(self) -> int:
        return self.sizes[-1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Batched forward pass; ``x`` is ``(batch, in_dim)``."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def backward(
        self, dout: np.ndarray, param_grads: bool = True, input_grad: bool = True
    ) -> np.ndarray | None:
        """Backprop ``dL/d(output)``; returns ``dL/d(input)``.

        Must follow a matching :meth:`forward` (layer caches are reused).
        Parameter gradients accumulate until :meth:`zero_grad`.
        ``param_grads=False`` skips them (callers that only need the input
        gradient, such as SAC's ``∂Q/∂a``); ``input_grad=False`` skips the
        first layer's input gradient and returns ``None``.
        """
        grad = np.atleast_2d(np.asarray(dout, dtype=np.float64))
        layers = self.layers
        for i in range(len(layers) - 1, 0, -1):
            grad = layers[i].backward(grad, param_grads)
        return self._input_layer.backward(grad, param_grads, input_grad)

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def zero_grad(self) -> None:
        self._grads.fill(0.0)

    def n_parameters(self) -> int:
        return self._values.size

    # --------------------------------------------------------- state (de)ser
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copies of all parameter arrays, keyed by parameter name."""
        return {p.name: p.value.copy() for p in self.parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        for p in self.parameters():
            if p.name not in state:
                raise KeyError(f"missing parameter {p.name!r} in state dict")
            src = np.asarray(state[p.name], dtype=np.float64)
            if src.shape != p.value.shape:
                raise ValueError(
                    f"shape mismatch for {p.name!r}: {src.shape} vs {p.value.shape}"
                )
            p.value[...] = src

    def _check_same_architecture(self, other: "MLP") -> None:
        # the layer widths fix every parameter shape and the buffer layout
        if self.sizes != other.sizes:
            raise ValueError(f"architectures differ: {self.sizes} vs {other.sizes}")

    def copy_from(self, other: "MLP") -> None:
        """Hard-copy parameters from a same-architecture network.

        Matching is positional (names may differ, e.g. target networks).
        """
        self._check_same_architecture(other)
        self._values[...] = other._values

    def polyak_from(self, other: "MLP", tau: float) -> None:
        """Soft update ``self <- tau * other + (1 - tau) * self`` (SAC targets)."""
        if not 0.0 <= tau <= 1.0:
            raise ValueError("tau must be in [0, 1]")
        self._check_same_architecture(other)
        self._values *= 1.0 - tau
        self._values += tau * other._values


def _address(array: np.ndarray) -> int:
    return array.__array_interface__["data"][0]


class ParameterRun(NamedTuple):
    """Parameters stored back to back, seen as one flat vector each way."""

    values: np.ndarray
    grads: np.ndarray
    params: tuple[Parameter, ...]
    #: each parameter's (start, stop) within ``values``/``grads``
    bounds: tuple[tuple[int, int], ...]


class ParameterGroup:
    """Parameters split into runs whose storage lies back to back.

    Consecutive parameters that are adjacent views into one 1-D buffer
    (all of an :class:`MLP`'s parameters, in order) form one run; any other
    parameter, such as a stand-alone ``log_std``, is a run of its own. Each
    run is viewed as one flat value vector and one flat grad vector, so
    element-wise work over the group is one ufunc call per run. The runs
    are computed once: build the group after the parameters' storage is
    final, and keep it for as long as the parameters live.
    """

    def __init__(self, params: Iterable[Parameter]) -> None:
        self.params = list(params)
        self.runs: list[ParameterRun] = []
        run: list[Parameter] = []
        for p in self.params:
            if run and not self._adjacent(run[-1], p):
                self._close(run)
                run = []
            run.append(p)
        if run:
            self._close(run)

    @staticmethod
    def _adjacent(prev: Parameter, p: Parameter) -> bool:
        vbase, gbase = p.value.base, p.grad.base
        return (
            vbase is not None
            and gbase is not None
            and vbase.ndim == 1
            and gbase.ndim == 1
            and vbase is prev.value.base
            and gbase is prev.grad.base
            and _address(p.value) == _address(prev.value) + prev.value.nbytes
            and _address(p.grad) == _address(prev.grad) + prev.grad.nbytes
        )

    def _close(self, run: list[Parameter]) -> None:
        bounds: list[tuple[int, int]] = []
        stop = 0
        for p in run:
            bounds.append((stop, stop + p.value.size))
            stop += p.value.size
        first = run[0]
        if len(run) == 1:
            values, grads = first.value.reshape(-1), first.grad.reshape(-1)
        else:
            vbase, gbase = first.value.base, first.grad.base
            v0 = (_address(first.value) - _address(vbase)) // vbase.itemsize
            g0 = (_address(first.grad) - _address(gbase)) // gbase.itemsize
            values, grads = vbase[v0 : v0 + stop], gbase[g0 : g0 + stop]
        self.runs.append(ParameterRun(values, grads, tuple(run), tuple(bounds)))

    @classmethod
    def of(cls, params: Iterable[Parameter]) -> "ParameterGroup":
        """``params`` itself if already a group, else a new group over it."""
        return params if isinstance(params, ParameterGroup) else cls(params)

    def __iter__(self) -> Iterator[Parameter]:
        return iter(self.params)

    def __len__(self) -> int:
        return len(self.params)

    def zero_grad(self) -> None:
        for run in self.runs:
            run.grads.fill(0.0)


def global_grad_norm(params: Iterable[Parameter]) -> float:
    """L2 norm of all gradients concatenated.

    The squares are formed once per run, but summed per parameter in
    order: one ``np.sum`` over a whole run would pair the terms
    differently, round differently, and so move the clip scale.
    """
    total = 0.0
    for run in ParameterGroup.of(params).runs:
        squares = run.grads * run.grads
        for start, stop in run.bounds:
            total += float(squares[start:stop].sum())
    return float(np.sqrt(total))


def clip_grad_norm(params: Iterable[Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global norm is at most ``max_norm``.

    Pass a :class:`ParameterGroup` (e.g. ``optimizer.params``) on hot paths
    so the runs are not recomputed. Returns the pre-clip norm.
    """
    group = ParameterGroup.of(params)
    norm = global_grad_norm(group)
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for run in group.runs:
            np.multiply(run.grads, scale, out=run.grads)
    return norm
