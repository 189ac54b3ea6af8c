"""Tests for the optimizers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.rl import MLP, SGD, Adam, Parameter


def quadratic_param(start=5.0):
    return Parameter("x", np.array([float(start)]))


def quadratic_grad(p: Parameter) -> None:
    # f(x) = 0.5 x^2 → grad = x
    p.zero_grad()
    p.grad += p.value


class TestSGD:
    def test_basic_descent(self):
        p = quadratic_param()
        opt = SGD([p], lr=0.1)
        for _ in range(100):
            quadratic_grad(p)
            opt.step()
        assert abs(p.value[0]) < 1e-3

    def test_momentum_accelerates(self):
        plain, heavy = quadratic_param(), quadratic_param()
        sgd = SGD([plain], lr=0.01)
        mom = SGD([heavy], lr=0.01, momentum=0.9)
        for _ in range(50):
            quadratic_grad(plain)
            sgd.step()
            quadratic_grad(heavy)
            mom.step()
        assert abs(heavy.value[0]) < abs(plain.value[0])

    def test_update_in_place_preserves_reference(self):
        p = quadratic_param()
        ref = p.value
        opt = SGD([p], lr=0.1)
        quadratic_grad(p)
        opt.step()
        assert p.value is ref

    def test_invalid_momentum(self):
        with pytest.raises(ValueError):
            SGD([quadratic_param()], lr=0.1, momentum=1.0)


class TestAdam:
    def test_converges_on_quadratic(self):
        p = quadratic_param()
        opt = Adam([p], lr=0.3)
        for _ in range(300):
            quadratic_grad(p)
            opt.step()
        assert abs(p.value[0]) < 1e-3

    def test_first_step_size_is_lr(self):
        # with bias correction the very first |Δx| equals lr regardless of grad scale
        for scale in (1e-3, 1.0, 1e3):
            p = Parameter("x", np.array([0.0]))
            opt = Adam([p], lr=0.1)
            p.grad += scale
            opt.step()
            assert abs(p.value[0]) == pytest.approx(0.1, rel=1e-2)  # up to eps effects

    def test_step_counter(self):
        p = quadratic_param()
        opt = Adam([p], lr=0.1)
        assert opt.t == 0
        quadratic_grad(p)
        opt.step()
        assert opt.t == 1

    def test_zero_grad_helper(self):
        p = quadratic_param()
        opt = Adam([p], lr=0.1)
        p.grad += 3.0
        opt.zero_grad()
        assert np.all(p.grad == 0.0)

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            Adam([quadratic_param()], lr=0.0)

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam([quadratic_param()], lr=0.1, betas=(1.0, 0.999))

    def test_empty_params(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_rosenbrock_progress(self):
        # a harder 2-D surface: Adam must make steady progress
        p = Parameter("xy", np.array([-1.0, 1.0]))
        opt = Adam([p], lr=0.02)

        def grad():
            x, y = p.value
            p.zero_grad()
            p.grad[0] = -2 * (1 - x) - 400 * x * (y - x**2)
            p.grad[1] = 200 * (y - x**2)

        def loss():
            x, y = p.value
            return (1 - x) ** 2 + 100 * (y - x**2) ** 2

        start = loss()
        for _ in range(500):
            grad()
            opt.step()
        assert loss() < start * 0.01


class TestFlatRunsMatchPerParameterReference:
    """One ufunc set per storage run gives the per-parameter result bit for bit."""

    @staticmethod
    def _params(seed: int) -> list[Parameter]:
        rng = np.random.default_rng(seed)
        q1 = MLP((9, 64, 64, 1), rng, activation="relu", name="q1")
        q2 = MLP((9, 64, 64, 1), rng, activation="relu", name="q2")
        return q1.parameters() + q2.parameters() + [Parameter("log_alpha", np.array([-1.6]))]

    @staticmethod
    def _set_grads(params: list[Parameter], rng: np.random.Generator) -> None:
        for p in params:
            p.grad[...] = rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 3)

    def test_adam(self):
        params, ref_params = self._params(0), self._params(0)
        opt = Adam(params, lr=3e-4)
        assert len(opt.params.runs) == 3
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        m = [np.zeros_like(p.value) for p in ref_params]
        v = [np.zeros_like(p.value) for p in ref_params]
        grad_rng, ref_rng = np.random.default_rng(1), np.random.default_rng(1)
        for t in range(1, 6):
            self._set_grads(params, grad_rng)
            self._set_grads(ref_params, ref_rng)
            opt.step()
            step_size = 3e-4 * np.sqrt(1.0 - beta2**t) / (1.0 - beta1**t)
            for p, mi, vi in zip(ref_params, m, v):
                mi *= beta1
                mi += (1.0 - beta1) * p.grad
                vi *= beta2
                vi += (1.0 - beta2) * (p.grad * p.grad)
                p.value -= step_size * mi / (np.sqrt(vi) + eps)
        for p, ref in zip(params, ref_params):
            assert p.value.tobytes() == ref.value.tobytes(), p.name
        assert np.concatenate(opt._m).tobytes() == np.concatenate([x.ravel() for x in m]).tobytes()
        assert np.concatenate(opt._v).tobytes() == np.concatenate([x.ravel() for x in v]).tobytes()

    def test_sgd_momentum(self):
        params, ref_params = self._params(2), self._params(2)
        opt = SGD(params, lr=1e-2, momentum=0.9)
        velocity = [np.zeros_like(p.value) for p in ref_params]
        grad_rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(5):
            self._set_grads(params, grad_rng)
            self._set_grads(ref_params, ref_rng)
            opt.step()
            for p, vel in zip(ref_params, velocity):
                vel *= 0.9
                vel += p.grad
                p.value -= 1e-2 * vel
        for p, ref in zip(params, ref_params):
            assert p.value.tobytes() == ref.value.tobytes(), p.name
