"""Forward-pass behavior of the network layers."""

import sys
import threading

import numpy as np
import pytest

from dbdiag import build_network, parse_architecture
from dbdiag.errors import ConfigError, InternalError
from dbdiag.nn import (
    BatchNorm,
    Dense,
    Flatten,
    ReLU,
    Reshape,
    TemporalNorm,
    TemporalNormReverse,
)


class TestDense:
    def test_affine_map_hand_case(self, rng):
        layer = Dense(2, 2, rng)
        layer.weights[:] = [[1.0, 2.0], [3.0, 4.0]]
        layer.bias[:] = [0.5, -0.5]
        out = layer.forward(np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(out, [[4.5, 5.5]])

    def test_bias_starts_at_zero(self, rng):
        assert np.all(Dense(7, 3, rng).bias == 0.0)

    def test_init_respects_fan_bound(self, rng):
        layer = Dense(40, 10, rng)
        limit = np.sqrt(6.0 / 50)
        assert np.abs(layer.weights).max() <= limit

    def test_init_is_seeded(self):
        a = Dense(5, 4, np.random.default_rng(9)).weights
        b = Dense(5, 4, np.random.default_rng(9)).weights
        np.testing.assert_array_equal(a, b)

    def test_backward_formulas(self, rng):
        layer = Dense(3, 2, rng)
        x = rng.normal(size=(4, 3))
        g = rng.normal(size=(4, 2))
        layer.forward(x, training=True)
        dx = layer.backward(g)
        np.testing.assert_allclose(layer.d_weights, x.T @ g)
        np.testing.assert_allclose(layer.d_bias, g.sum(axis=0))
        np.testing.assert_allclose(dx, g @ layer.weights.T)

    def test_width_mismatch_rejected(self, rng):
        with pytest.raises(ConfigError):
            Dense(3, 2, rng).forward(np.zeros((1, 4)))

    def test_nonpositive_size_rejected(self, rng):
        with pytest.raises(ConfigError):
            Dense(0, 2, rng)

    def test_backward_needs_training_forward(self, rng):
        layer = Dense(3, 2, rng)
        layer.forward(np.zeros((1, 3)), training=False)
        with pytest.raises(InternalError):
            layer.backward(np.zeros((1, 2)))


class TestReLU:
    def test_clamps_negatives(self):
        out = ReLU().forward(np.array([[-2.0, 0.0, 3.0]]))
        np.testing.assert_array_equal(out, [[0.0, 0.0, 3.0]])

    def test_backward_masks_grad(self):
        layer = ReLU()
        layer.forward(np.array([[-1.0, 2.0]]), training=True)
        np.testing.assert_array_equal(layer.backward(np.array([[5.0, 5.0]])),
                                      [[0.0, 5.0]])

    def test_backward_needs_training_forward(self):
        with pytest.raises(InternalError):
            ReLU().backward(np.zeros((1, 2)))


class TestShapeLayers:
    def test_flatten_is_time_major(self):
        x = np.arange(12.0).reshape(1, 3, 4)
        flat = Flatten(3, 4).forward(x)
        # element (t, f) lands at t*F + f
        assert flat[0, 1 * 4 + 2] == x[0, 1, 2]

    def test_roundtrip(self, rng):
        x = rng.normal(size=(2, 5, 3))
        back = Reshape(5, 3).forward(Flatten(5, 3).forward(x))
        np.testing.assert_array_equal(back, x)

    def test_flatten_shape_checked(self):
        with pytest.raises(ConfigError):
            Flatten(3, 4).forward(np.zeros((1, 4, 3)))

    def test_reshape_width_checked(self):
        with pytest.raises(ConfigError):
            Reshape(3, 4).forward(np.zeros((1, 11)))


class TestTemporalNorm:
    def test_hand_case(self):
        layer = TemporalNorm(1)
        out, _ = layer.forward(np.array([[[1.0], [2.0], [3.0]]]))
        np.testing.assert_allclose(out[0, :, 0], [-1.2247, 0.0, 1.2247],
                                   atol=1e-4)

    def test_every_window_leaves_standardized(self, rng):
        layer = TemporalNorm(4)
        x = rng.normal(size=(8, 30, 4)) * 7.0 + 300.0
        out, _ = layer.forward(x)
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=1), 1.0, atol=1e-4)

    def test_level_and_scale_do_not_matter(self, rng):
        # epsilon shifts the two denominators slightly, hence the loose atol
        layer = TemporalNorm(2)
        x = rng.normal(size=(3, 20, 2))
        shifted = 50.0 * x - 1e4
        np.testing.assert_allclose(layer.forward(x)[0], layer.forward(shifted)[0],
                                   atol=1e-4)

    def test_constant_window_maps_to_beta(self):
        layer = TemporalNorm(1)
        layer.beta[:] = 0.25
        out, _ = layer.forward(np.full((1, 10, 1), 42.0))
        np.testing.assert_allclose(out, 0.25)

    def test_moments_returned_for_pairing(self, rng):
        layer = TemporalNorm(3, epsilon=1e-3)
        x = rng.normal(size=(2, 6, 3))
        _, (mean, denom) = layer.forward(x, training=False)
        np.testing.assert_allclose(mean, x.mean(axis=1, keepdims=True))
        np.testing.assert_allclose(denom, x.std(axis=1, keepdims=True) + 1e-3)

    def test_short_window_rejected(self):
        with pytest.raises(ConfigError):
            TemporalNorm(1).forward(np.zeros((1, 1, 1)))

    def test_bad_epsilon_rejected(self):
        with pytest.raises(ConfigError):
            TemporalNorm(1, epsilon=0.0)


class TestTemporalNormReverse:
    def test_undoes_the_paired_layer(self, rng):
        fwd = TemporalNorm(3)
        rev = TemporalNormReverse(3)
        x = rng.normal(size=(4, 12, 3)) * 9.0 + 120.0
        restored = rev.forward(fwd.forward(x))
        np.testing.assert_allclose(restored, x, atol=1e-9)

    def test_backward_needs_training_forward(self, rng):
        rev = TemporalNormReverse(2)
        rev.forward(TemporalNorm(2).forward(rng.normal(size=(1, 5, 2))))
        with pytest.raises(InternalError):
            rev.backward(np.zeros((1, 5, 2)))


class TestBatchNorm:
    def test_hand_case(self):
        layer = BatchNorm(1)
        out = layer.forward(np.array([[0.0], [0.0], [2.0], [2.0]]), training=True)
        np.testing.assert_allclose(out[:, 0], [-1.0, -1.0, 1.0, 1.0], atol=1e-4)

    def test_pools_batch_and_time(self, rng):
        layer = BatchNorm(3)
        x = rng.normal(size=(4, 7, 3)) * 3.0 + 11.0
        out = layer.forward(x, training=True)
        np.testing.assert_allclose(out.mean(axis=(0, 1)), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=(0, 1)), 1.0, atol=1e-4)

    def test_running_stats_are_an_ema(self, rng):
        layer = BatchNorm(2, momentum=0.1)
        x1 = rng.normal(size=(16, 2))
        x2 = rng.normal(size=(16, 2))
        layer.forward(x1, training=True)
        layer.forward(x2, training=True)
        expect_mean = 0.9 * (0.1 * x1.mean(axis=0)) + 0.1 * x2.mean(axis=0)
        np.testing.assert_allclose(layer.running_mean, expect_mean)
        assert layer.updates == 2

    def test_inference_uses_running_stats(self, rng):
        layer = BatchNorm(2)
        x = rng.normal(size=(64, 2))
        layer.forward(x, training=True)
        out = layer.forward(np.zeros((1, 2)), training=False)
        expect = -layer.running_mean / (layer.running_std + layer.epsilon)
        np.testing.assert_allclose(out[0], expect)

    def test_inference_before_any_update_rejected(self):
        with pytest.raises(ConfigError):
            BatchNorm(2).forward(np.zeros((1, 2)), training=False)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            BatchNorm(2).forward(np.zeros((1, 3)), training=True)


def test_concurrent_inference_on_a_shared_network(rng):
    """Two threads scoring through one model must each get their own result.

    The temporal-norm pair hands its per-window moments from BTN to BTN*; if
    they passed through layer state, one thread would restore its windows
    with the other thread's levels and get a silently wrong output.
    """
    net = build_network(parse_architecture("BTN-(12)-(4)-(12*)-BTN*"), 10, 3, rng)
    inputs = [rng.normal(size=(4, 10, 3)) * 5.0 + 100.0 * (i + 1) for i in range(2)]
    expected = [net.forward(x) for x in inputs]
    wrong = [0, 0]

    def run(i):
        for _ in range(500):
            if not np.array_equal(net.forward(inputs[i]), expected[i]):
                wrong[i] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == [0, 0]
