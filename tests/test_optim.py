"""Adam update rule, the reconstruction loss and the window score."""

import math

import numpy as np
import pytest

from dbdiag import build_network, parse_architecture
from dbdiag.detector import _SCORE_CHUNK, _score_window_array
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


def reference_step(params, moments, grads, t, lr=0.001):
    """One step of the per-parameter loop the flat update replaced: the same
    float64 operations, parameter by parameter."""
    b1, b2, eps = Adam.BETA1, Adam.BETA2, Adam.EPSILON
    for name, param in params.items():
        g = grads[name].astype(np.float64, copy=False)
        m, v = moments[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        param -= lr * m_hat / (np.sqrt(v_hat) + eps)


def mixed_params(rng):
    return {"0:dense.weights": rng.normal(size=(7, 3)), "0:dense.bias": np.zeros(3),
            "1:btn.gamma": np.ones(5), "2:dense.weights": rng.normal(size=(3, 7)),
            "3:bn.beta": rng.normal(size=1)}


def mixed_grads(rng, params, scale=1.0):
    """float32 gradients for even-numbered entries, float64 for the rest."""
    return {name: (rng.normal(size=p.shape) * scale).astype(
                np.float32 if i % 2 == 0 else np.float64)
            for i, (name, p) in enumerate(params.items())}


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

    def test_mixed_parameters_match_the_per_parameter_loop_bit_for_bit(self, rng):
        params = mixed_params(rng)
        ref = {name: p.copy() for name, p in params.items()}
        moments = {name: (np.zeros_like(p), np.zeros_like(p)) for name, p in ref.items()}
        opt = Adam(params, learning_rate=0.003)
        for t in range(1, 7):
            grads = mixed_grads(rng, params, scale=10.0 ** (t - 3))
            opt.step(grads)
            reference_step(ref, moments, grads, t, lr=0.003)
            for name, p in params.items():
                assert np.array_equal(p, ref[name]), (t, name)

    def test_missing_gradient_rejected(self):
        opt = Adam({"w": np.zeros(2)})
        with pytest.raises(TrainingError):
            opt.step({})

    def test_nonfinite_gradient_rejected(self):
        opt = Adam({"w": np.zeros(2)})
        with pytest.raises(TrainingError):
            opt.step({"w": np.array([1.0, np.nan])})

    @pytest.mark.parametrize("fault", ["missing", "nan", "inf", "nan_then_missing"])
    def test_a_bad_gradient_changes_nothing(self, rng, fault):
        """The error names the first bad parameter in dict order, and no
        parameter, moment or step count moves: the next good steps go as if
        the bad one had never been offered."""
        params = mixed_params(rng)
        twin = {name: p.copy() for name, p in params.items()}
        opt, clean = Adam(params), Adam(twin)
        good = [mixed_grads(rng, params) for _ in range(3)]
        opt.step(good[0])
        clean.step(good[0])
        before = {name: p.copy() for name, p in params.items()}
        bad = dict(good[1])
        if fault == "missing":
            del bad["2:dense.weights"], bad["3:bn.beta"]
            message = "no gradient for parameter '2:dense.weights'"
        elif fault == "nan_then_missing":
            bad["1:btn.gamma"] = np.full(5, np.nan)
            del bad["2:dense.weights"]
            message = "non-finite gradient in parameter '1:btn.gamma'"
        else:
            for name in ("2:dense.weights", "3:bn.beta"):
                bad[name] = bad[name].copy()
                bad[name].flat[-1] = float(fault)
            message = "non-finite gradient in parameter '2:dense.weights'"
        with pytest.raises(TrainingError, match=message):
            opt.step(bad)
        for name, p in params.items():
            assert np.array_equal(p, before[name]), name
        for grads in good[1:]:
            opt.step(grads)
            clean.step(grads)
        for name, p in params.items():
            assert np.array_equal(p, twin[name]), name


@pytest.mark.parametrize("arch", ["BTN-(8)-(4)-(8*)-BTN*", "(8)-(4)-(8*)"])
@pytest.mark.parametrize("features", [1, 6])
def test_window_score_equals_the_float64_time_mean(arch, features, rng):
    """The score sums a float64 copy of the squared errors over time, which
    must give the bits of numpy's float64 mean, across a chunk boundary."""
    steps = 30
    network = build_network(parse_architecture(arch), steps, features, rng)
    windows = rng.normal(size=(_SCORE_CHUNK + 37, steps, features)).astype(np.float32)
    want = []
    for start in range(0, len(windows), _SCORE_CHUNK):
        chunk = windows[start:start + _SCORE_CHUNK]
        resid = network.forward(chunk, training=False) - chunk
        want.append((resid * resid).mean(axis=1, dtype=np.float64))
    got = _score_window_array(network, windows)
    assert got.dtype == np.float64
    assert np.array_equal(got, np.concatenate(want))


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
