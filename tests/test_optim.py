"""Adam update rule and the reconstruction loss."""

import math

import numpy as np
import pytest

from dbdiag.errors import InternalError, TrainingError
from dbdiag.nn import Adam, squared_error


def reference_adam(grads, lr=0.001, b1=0.9, b2=0.999, eps=1e-8, start=0.0):
    """Textbook recurrence on a scalar, written independently of the class."""
    theta, m, v = start, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        theta -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return theta


class TestAdam:
    def test_first_step_moves_by_almost_lr(self):
        # bias correction makes step one ~lr regardless of gradient scale
        p = np.array([1.0])
        opt = Adam({"w": p}, learning_rate=0.1)
        opt.step({"w": np.array([42.0])})
        np.testing.assert_allclose(p, [0.9], atol=1e-8)

    def test_matches_reference_recurrence(self):
        rng = np.random.default_rng(4)
        grads = rng.normal(size=12)
        p = np.array([0.3])
        opt = Adam({"w": p}, learning_rate=0.01)
        for g in grads:
            opt.step({"w": np.array([g])})
        np.testing.assert_allclose(p[0], reference_adam(grads, lr=0.01, start=0.3),
                                   rtol=1e-12)

    def test_updates_are_elementwise(self, rng):
        p = rng.normal(size=(3, 4)).copy()
        ref = p.copy()
        opt = Adam({"w": p})
        g = rng.normal(size=(3, 4))
        opt.step({"w": g})
        for idx in np.ndindex(3, 4):
            single = np.array([ref[idx]])
            Adam({"w": single}).step({"w": np.array([g[idx]])})
            np.testing.assert_allclose(p[idx], single[0], rtol=1e-12)

    def test_update_is_in_place(self, rng):
        p = rng.normal(size=5)
        opt = Adam({"w": p})
        before = p.copy()
        opt.step({"w": np.ones(5)})
        assert not np.array_equal(p, before)  # same buffer, new values

    def test_float32_gradient_updates_in_float64(self, rng):
        """A float32 gradient is upcast once, so the float64 parameters take
        the step its float64 copy would give, bit for bit."""
        g = rng.normal(size=5).astype(np.float32)
        fed32 = rng.normal(size=5)
        fed64 = fed32.copy()
        a, b = Adam({"w": fed32}), Adam({"w": fed64})
        for _ in range(3):
            a.step({"w": g})
            b.step({"w": g.astype(np.float64)})
        assert fed32.dtype == np.float64
        assert np.array_equal(fed32, fed64)

    def test_missing_gradient_rejected(self):
        opt = Adam({"w": np.zeros(2)})
        with pytest.raises(TrainingError):
            opt.step({})

    def test_nonfinite_gradient_rejected(self):
        opt = Adam({"w": np.zeros(2)})
        with pytest.raises(TrainingError):
            opt.step({"w": np.array([1.0, np.nan])})


def objective(pred, target):
    """The training objective: the summed squared error per window."""
    return squared_error(pred, target)[0] / pred.shape[0]


class TestLoss:
    def test_sums_within_sample_means_over_batch(self):
        pred = np.array([[1.0, 2.0], [3.0, 4.0]])
        target = np.array([[0.0, 0.0], [0.0, 0.0]])
        assert squared_error(pred, target)[0] == 30.0
        # (1+4+9+16)/2 samples
        assert objective(pred, target) == pytest.approx(15.0)

    def test_grad_matches_finite_differences(self, rng):
        pred = rng.normal(size=(3, 4, 2))
        target = rng.normal(size=(3, 4, 2))
        _, g = squared_error(pred, target)
        h = 1e-6
        flat = pred.reshape(-1)
        gflat = g.reshape(-1)
        for i in (0, 7, 23):
            orig = flat[i]
            flat[i] = orig + h
            hi = objective(pred, target)
            flat[i] = orig - h
            lo = objective(pred, target)
            flat[i] = orig
            np.testing.assert_allclose(gflat[i], (hi - lo) / (2 * h), atol=1e-6)

    def test_grad_is_a_new_array(self, rng):
        pred = rng.normal(size=(3, 4, 2))
        target = rng.normal(size=(3, 4, 2))
        pred.flags.writeable = False
        target.flags.writeable = False
        total, g = squared_error(pred, target)
        assert total == float(np.sum((pred - target) ** 2))
        assert np.array_equal(g, 2.0 * (pred - target) / 3)

    def test_float32_batch_sums_in_float64(self, rng):
        pred = rng.normal(size=(64, 30, 6)).astype(np.float32)
        target = rng.normal(size=pred.shape).astype(np.float32)
        resid = pred - target
        total, g = squared_error(pred, target)
        exact = math.fsum((resid * resid).astype(np.float64).ravel())
        assert total == pytest.approx(exact, rel=1e-13)
        assert g.dtype == np.float32
        assert np.array_equal(g, resid * 2.0 / 64)

    def test_zero_at_perfect_reconstruction(self, rng):
        x = rng.normal(size=(2, 5, 3))
        total, g = squared_error(x, x)
        assert total == 0.0
        np.testing.assert_array_equal(g, 0.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InternalError):
            squared_error(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_empty_batch_rejected(self):
        with pytest.raises(InternalError):
            squared_error(np.zeros((0, 3)), np.zeros((0, 3)))
