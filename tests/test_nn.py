"""Tests for the manual-backprop network stack, incl. gradient checks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rl import MLP, Dense, Parameter, ReLU, Tanh, clip_grad_norm, orthogonal_init
from repro.rl.nn import ParameterGroup, global_grad_norm


def numeric_grad(fn, array, eps=1e-6):
    grad = np.zeros_like(array)
    flat = array.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        up = fn()
        flat[i] = old - eps
        down = fn()
        flat[i] = old
        gflat[i] = (up - down) / (2 * eps)
    return grad


class TestParameter:
    def test_contiguous_storage(self, rng):
        p = Parameter("w", orthogonal_init((3, 5), 1.0, rng))
        assert p.value.flags["C_CONTIGUOUS"]

    def test_zero_grad(self):
        p = Parameter("w", np.ones((2, 2)))
        p.grad += 3.0
        p.zero_grad()
        assert np.all(p.grad == 0.0)


class TestOrthogonalInit:
    def test_orthogonal_columns(self, rng):
        w = orthogonal_init((8, 4), 1.0, rng)
        gram = w.T @ w
        assert np.allclose(gram, np.eye(4), atol=1e-10)

    def test_gain_scaling(self, rng):
        w = orthogonal_init((6, 6), 2.0, rng)
        assert np.allclose(w @ w.T, 4.0 * np.eye(6), atol=1e-10)

    def test_wide_matrices(self, rng):
        w = orthogonal_init((3, 7), 1.0, rng)
        assert np.allclose(w @ w.T, np.eye(3), atol=1e-10)


class TestLayers:
    def test_dense_forward(self, rng):
        layer = Dense(3, 2, rng)
        x = rng.standard_normal((4, 3))
        y = layer.forward(x)
        assert y.shape == (4, 2)
        assert np.allclose(y, x @ layer.w.value + layer.b.value)

    def test_dense_backward_before_forward_raises(self, rng):
        layer = Dense(3, 2, rng)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((4, 2)))

    def test_relu_masks_negative(self):
        layer = ReLU()
        x = np.array([[-1.0, 2.0]])
        assert np.allclose(layer.forward(x), [[0.0, 2.0]])
        assert np.allclose(layer.backward(np.ones((1, 2))), [[0.0, 1.0]])

    def test_tanh_gradient(self):
        layer = Tanh()
        x = np.array([[0.5]])
        y = layer.forward(x)
        g = layer.backward(np.ones((1, 1)))
        assert np.allclose(g, 1 - y**2)


class TestMLP:
    def test_needs_two_sizes(self, rng):
        with pytest.raises(ValueError):
            MLP((4,), rng)

    def test_unknown_activation(self, rng):
        with pytest.raises(ValueError):
            MLP((4, 2), rng, activation="gelu")

    def test_forward_shape(self, rng):
        net = MLP((5, 16, 16, 2), rng)
        y = net.forward(rng.standard_normal((7, 5)))
        assert y.shape == (7, 2)

    def test_forward_promotes_1d_input(self, rng):
        net = MLP((5, 8, 2), rng)
        y = net.forward(rng.standard_normal(5))
        assert y.shape == (1, 2)

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_param_gradients_match_finite_differences(self, rng, activation):
        net = MLP((4, 6, 3), rng, activation=activation)
        x = rng.standard_normal((5, 4))
        target = rng.standard_normal((5, 3))

        def loss():
            return 0.5 * np.sum((net.forward(x) - target) ** 2)

        y = net.forward(x)
        net.zero_grad()
        net.backward(y - target)
        for p in net.parameters():
            expected = numeric_grad(loss, p.value)
            assert np.allclose(p.grad, expected, atol=1e-5), p.name

    def test_input_gradients_match_finite_differences(self, rng):
        net = MLP((3, 8, 2), rng)
        x = rng.standard_normal((4, 3))
        target = rng.standard_normal((4, 2))
        y = net.forward(x)
        net.zero_grad()
        din = net.backward(y - target)

        def loss():
            return 0.5 * np.sum((net.forward(x) - target) ** 2)

        expected = numeric_grad(loss, x)
        assert np.allclose(din, expected, atol=1e-5)

    def test_gradients_accumulate(self, rng):
        net = MLP((2, 4, 1), rng)
        x = rng.standard_normal((3, 2))
        net.forward(x)
        net.backward(np.ones((3, 1)))
        g1 = net.parameters()[0].grad.copy()
        net.forward(x)
        net.backward(np.ones((3, 1)))
        assert np.allclose(net.parameters()[0].grad, 2 * g1)

    def test_state_dict_roundtrip(self, rng):
        a = MLP((3, 8, 2), rng)
        b = MLP((3, 8, 2), np.random.default_rng(99))
        b.load_state_dict(a.state_dict())
        x = rng.standard_normal((2, 3))
        assert np.allclose(a.forward(x), b.forward(x))

    def test_state_dict_shape_mismatch(self, rng):
        a = MLP((3, 8, 2), rng)
        state = a.state_dict()
        state[next(iter(state))] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            a.load_state_dict(state)

    def test_state_dict_missing_key(self, rng):
        a = MLP((3, 8, 2), rng)
        with pytest.raises(KeyError):
            a.load_state_dict({})

    def test_copy_from_positional(self, rng):
        a = MLP((3, 8, 2), rng, name="src")
        b = MLP((3, 8, 2), np.random.default_rng(1), name="dst")
        b.copy_from(a)
        x = rng.standard_normal((2, 3))
        assert np.allclose(a.forward(x), b.forward(x))

    def test_copy_from_mismatch_raises(self, rng):
        a = MLP((3, 8, 2), rng)
        b = MLP((3, 4, 2), rng)
        with pytest.raises(ValueError):
            b.copy_from(a)

    def test_polyak_interpolates(self, rng):
        a = MLP((2, 4, 1), rng)
        b = MLP((2, 4, 1), np.random.default_rng(7))
        before = b.parameters()[0].value.copy()
        target = a.parameters()[0].value
        b.polyak_from(a, tau=0.25)
        expected = 0.75 * before + 0.25 * target
        assert np.allclose(b.parameters()[0].value, expected)

    def test_polyak_tau_one_copies(self, rng):
        a = MLP((2, 4, 1), rng)
        b = MLP((2, 4, 1), np.random.default_rng(7))
        b.polyak_from(a, tau=1.0)
        x = rng.standard_normal((3, 2))
        assert np.allclose(a.forward(x), b.forward(x))

    def test_polyak_invalid_tau(self, rng):
        a = MLP((2, 4, 1), rng)
        with pytest.raises(ValueError):
            a.polyak_from(a, tau=1.5)

    def test_n_parameters(self, rng):
        net = MLP((3, 8, 2), rng)
        assert net.n_parameters() == 3 * 8 + 8 + 8 * 2 + 2

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_forward_shape_property(self, batch, out_dim):
        net = MLP((4, 8, out_dim), np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((batch, 4))
        assert net.forward(x).shape == (batch, out_dim)


class TestGradClipping:
    def test_clip_reduces_norm(self, rng):
        net = MLP((3, 4, 2), rng)
        for p in net.parameters():
            p.grad[...] = 10.0
        norm_before = global_grad_norm(net.parameters())
        returned = clip_grad_norm(net.parameters(), max_norm=1.0)
        assert returned == pytest.approx(norm_before)
        assert global_grad_norm(net.parameters()) == pytest.approx(1.0)

    def test_no_clip_when_small(self, rng):
        net = MLP((3, 4, 2), rng)
        for p in net.parameters():
            p.grad[...] = 1e-4
        before = [p.grad.copy() for p in net.parameters()]
        clip_grad_norm(net.parameters(), max_norm=10.0)
        for p, b in zip(net.parameters(), before):
            assert np.allclose(p.grad, b)


def _assert_aliased(net: MLP) -> None:
    """Every parameter is still a view into the network's flat buffers."""
    params = net.parameters()
    for p in params:
        assert p.value.base is net._values, p.name
        assert p.grad.base is net._grads, p.name
    assert np.array_equal(net._values, np.concatenate([p.value.ravel() for p in params]))
    assert np.array_equal(net._grads, np.concatenate([p.grad.ravel() for p in params]))


class TestFlatStorage:
    def test_parameters_are_views_of_one_buffer(self, rng):
        net = MLP((3, 8, 2), rng)
        _assert_aliased(net)
        assert net._values.size == net.n_parameters()
        net.parameters()[0].value[0, 0] = 42.0
        assert net._values[0] == 42.0

    def test_views_survive_state_load_copy_polyak_and_adam(self, rng):
        from repro.rl import Adam

        a = MLP((3, 8, 2), rng, activation="relu")
        b = MLP((3, 8, 2), np.random.default_rng(1), activation="relu")
        b.load_state_dict(MLP((3, 8, 2), np.random.default_rng(2)).state_dict())
        _assert_aliased(b)
        b.copy_from(a)
        _assert_aliased(b)
        b.polyak_from(a, tau=0.3)
        _assert_aliased(b)
        opt = Adam(b.parameters(), lr=1e-2)
        x = rng.standard_normal((4, 3))
        for _ in range(3):
            b.zero_grad()
            b.backward(b.forward(x))
            opt.step()
        _assert_aliased(b)
        assert not np.array_equal(a._values, b._values)

    def test_group_runs_follow_storage(self, rng):
        q1, q2 = MLP((3, 8, 1), rng), MLP((3, 8, 1), rng)
        alone = Parameter("log_alpha", np.zeros(1))
        group = ParameterGroup(q1.parameters() + [alone] + q2.parameters())
        assert [len(run.params) for run in group.runs] == [4, 1, 4]
        assert np.shares_memory(group.runs[0].values, q1._values)
        assert group.runs[0].values.size == q1.n_parameters()
        assert np.shares_memory(group.runs[1].values, alone.value)
        group.runs[2].grads[...] = 1.0
        assert all(np.all(p.grad == 1.0) for p in q2.parameters())
        group.zero_grad()
        assert not q2._grads.any()

    def test_group_splits_out_of_order_parameters(self, rng):
        net = MLP((3, 8, 2), rng)
        params = net.parameters()
        group = ParameterGroup([params[2], params[0], params[1], params[3]])
        assert [len(run.params) for run in group.runs] == [1, 2, 1]

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_gradient_skipping_backward_matches_full(self, rng, activation):
        net = MLP((4, 16, 16, 3), rng, activation=activation)
        x = rng.standard_normal((9, 4))
        dout = rng.standard_normal((9, 3))
        net.forward(x)
        net.zero_grad()
        full_input = net.backward(dout)
        full_params = net._grads.copy()

        net.zero_grad()
        assert net.backward(dout, input_grad=False) is None
        assert np.array_equal(net._grads, full_params)

        net.zero_grad()
        assert np.array_equal(net.backward(dout, param_grads=False), full_input)
        assert not net._grads.any()

    def test_grad_norm_keeps_per_parameter_sums(self, rng):
        nets = [MLP((5, 64, 64, 2), rng), MLP((5, 64, 64, 1), rng)]
        alone = Parameter("log_std", np.zeros(2))
        params = nets[0].parameters() + [alone] + nets[1].parameters()
        for p in params:
            p.grad[...] = rng.standard_normal(p.shape) * 1e3
        reference = 0.0
        for p in params:
            reference += float(np.sum(p.grad * p.grad))
        assert global_grad_norm(ParameterGroup(params)) == float(np.sqrt(reference))


class TestReLU:
    def test_bit_equal_to_where_for_finite_inputs(self, rng):
        x = rng.standard_normal((128, 64))
        x[::7, ::3] = 0.0
        x[::5, ::4] = -0.0
        y = ReLU().forward(x)
        assert y.tobytes() == np.where(x > 0, x, 0.0).tobytes()

    def test_nan_pre_activation_propagates(self):
        layer = ReLU()
        y = layer.forward(np.array([[np.nan, -1.0, 2.0]]))
        assert np.isnan(y[0, 0]) and y[0, 1] == 0.0 and y[0, 2] == 2.0
        assert np.array_equal(layer.backward(np.ones((1, 3))), [[0.0, 0.0, 1.0]])
