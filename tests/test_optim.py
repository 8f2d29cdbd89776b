"""Adam update rule, the reconstruction loss and the window score."""

import math
from dataclasses import replace

import numpy as np
import pytest

from dbdiag import (
    GlobalNorm,
    MetricFrame,
    TrainConfig,
    build_network,
    make_windows,
    parse_architecture,
    split_windows,
    train,
)
from dbdiag.detector import (
    SELECTED_ARCHITECTURE,
    _SCORE_CHUNK,
    _prepared_inputs,
    _score_inputs,
    _score_window_array,
)
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


def laid_out(params):
    """``params`` concatenated into one float64 vector, and each one's slice
    of it, as a ``Network`` lays out its parameters."""
    layout, offset = {}, 0
    for name, p in params.items():
        layout[name] = slice(offset, offset + p.size)
        offset += p.size
    return np.concatenate([p.ravel() for p in params.values()]), layout


def flat_grads(grads, layout):
    """Per-name gradients stored in one float64 vector as layers store theirs,
    with ``np.copyto``, which upcasts float32 exactly."""
    flat = np.empty(max(part.stop for part in layout.values()))
    for name, part in layout.items():
        np.copyto(flat[part], grads[name].ravel())
    return flat


def unpacked(values, layout, params):
    return {name: values[part].reshape(params[name].shape) for name, part in layout.items()}


class TestAdam:
    def test_first_step_moves_by_almost_lr(self):
        # bias correction makes step one ~lr regardless of gradient scale
        p = np.array([1.0])
        opt = Adam(p, {"w": slice(0, 1)}, learning_rate=0.1)
        opt.step(np.array([42.0]))
        np.testing.assert_allclose(p, [0.9], atol=1e-8)

    def test_matches_reference_recurrence(self):
        rng = np.random.default_rng(4)
        grads = rng.normal(size=12)
        p = np.array([0.3])
        opt = Adam(p, {"w": slice(0, 1)}, learning_rate=0.01)
        for g in grads:
            opt.step(np.array([g]))
        np.testing.assert_allclose(p[0], reference_adam(grads, lr=0.01, start=0.3),
                                   rtol=1e-12)

    def test_updates_are_elementwise(self, rng):
        p = rng.normal(size=12)
        ref = p.copy()
        opt = Adam(p, {"w": slice(0, 12)})
        g = rng.normal(size=12)
        opt.step(g)
        for i in range(12):
            single = np.array([ref[i]])
            Adam(single, {"w": slice(0, 1)}).step(np.array([g[i]]))
            np.testing.assert_allclose(p[i], single[0], rtol=1e-12)

    def test_update_is_in_place(self, rng):
        p = rng.normal(size=5)
        opt = Adam(p, {"w": slice(0, 5)})
        before = p.copy()
        opt.step(np.ones(5))
        assert not np.array_equal(p, before)  # same buffer, new values

    def test_float32_gradient_updates_in_float64(self, rng):
        """A float32 gradient stored in the float64 gradient vector, as a
        layer stores its own, takes the step its float64 copy would give, bit
        for bit; the step writes no gradient."""
        g = rng.normal(size=5).astype(np.float32)
        fed32 = rng.normal(size=5)
        fed64 = fed32.copy()
        grads32, grads64 = np.empty(5), g.astype(np.float64)
        np.copyto(grads32, g)
        a, b = Adam(fed32, {"w": slice(0, 5)}), Adam(fed64, {"w": slice(0, 5)})
        for _ in range(3):
            a.step(grads32)
            b.step(grads64)
        assert np.array_equal(fed32, fed64)
        assert np.array_equal(grads32, g) and np.array_equal(grads64, g)

    def test_mixed_parameters_match_the_per_parameter_loop_bit_for_bit(self, rng):
        params = mixed_params(rng)
        ref = {name: p.copy() for name, p in params.items()}
        moments = {name: (np.zeros_like(p), np.zeros_like(p)) for name, p in ref.items()}
        values, layout = laid_out(params)
        opt = Adam(values, layout, learning_rate=0.003)
        for t in range(1, 7):
            grads = mixed_grads(rng, params, scale=10.0 ** (t - 3))
            opt.step(flat_grads(grads, layout))
            reference_step(ref, moments, grads, t, lr=0.003)
            for name, p in unpacked(values, layout, params).items():
                assert np.array_equal(p, ref[name]), (t, name)

    def test_nonfinite_gradient_rejected(self):
        opt = Adam(np.zeros(2), {"w": slice(0, 2)})
        with pytest.raises(TrainingError):
            opt.step(np.array([1.0, np.nan]))

    @pytest.mark.parametrize("fault", ["nan", "inf"])
    def test_a_bad_gradient_changes_nothing(self, rng, fault):
        """The error names the first bad parameter in layout order, and no
        parameter, moment or step count moves: the next good steps go as if
        the bad one had never been offered."""
        params = mixed_params(rng)
        values, layout = laid_out(params)
        twin = values.copy()
        opt, clean = Adam(values, layout), Adam(twin, layout)
        good = [flat_grads(mixed_grads(rng, params), layout) for _ in range(3)]
        opt.step(good[0])
        clean.step(good[0])
        before = values.copy()
        bad = good[1].copy()
        for name in ("3:bn.beta", "2:dense.weights"):
            bad[layout[name].stop - 1] = float(fault)
        with pytest.raises(TrainingError,
                           match="non-finite gradient in parameter '2:dense.weights'"):
            opt.step(bad)
        assert np.array_equal(values, before)
        for grads in good[1:]:
            opt.step(grads)
            clean.step(grads)
        assert np.array_equal(values, twin)


@pytest.mark.parametrize("lam", [0.001, 0.0])
@pytest.mark.parametrize("arch", ["BTN-(8)-(4)-(8*)-BTN*", "(8)-BN-(4)-BN*-(8*)"])
def test_a_fit_matches_the_per_parameter_reference_bit_for_bit(arch, lam):
    """``train`` steps every parameter through the network's flat vectors. A
    reference fit of the same batches takes each gradient by name, adds
    ``2 * lam * w`` to the weights of each dense layer and runs the textbook
    recurrence parameter by parameter; the state ``train`` keeps must equal
    the reference's at the best epoch, bit for bit."""
    rng = np.random.default_rng(5)
    t = np.arange(120)
    values = np.column_stack([10.0 + np.sin(t / 3.0), 5.0 + 0.05 * t])
    frame = MetricFrame(("cpu", "io"), 27_000_000 + t, values + 0.1 * rng.normal(size=(120, 2)))
    config = TrainConfig(architecture=arch, window_steps=4, batch_size=16, max_epochs=3,
                         patience=3, l2_lambda=lam, seed=0)
    result = train(frame, config)

    norm = GlobalNorm.fit(frame)
    windows = make_windows(replace(frame, values=norm.apply(frame.values)), 4, 1)
    batches = split_windows(windows, config.split).train.windows
    rng = np.random.default_rng(config.seed)
    net = build_network(parse_architecture(arch), 4, 2, rng)
    live = net.parameters()
    params = {name: p.copy() for name, p in live.items()}
    moments = {name: (np.zeros_like(p), np.zeros_like(p)) for name, p in params.items()}
    snapshots, step = [], 0
    for _ in range(config.max_epochs):
        order = rng.permutation(len(batches))
        for start in range(0, len(order), config.batch_size):
            batch = batches[order[start:start + config.batch_size]]
            net.backward(squared_error(net.forward(batch, training=True), batch)[1],
                         input_grad=False)
            grads = {}
            for name in params:
                index, label, key = name.replace(":", ".").split(".")
                grads[name] = getattr(net.layers[int(index)], f"d_{key}").copy()
                if label.startswith("dense") and key == "weights":
                    grads[name] = grads[name] + 2.0 * lam * params[name]
            step += 1
            reference_step(params, moments, grads, step, lr=config.learning_rate)
            for name, p in params.items():
                np.copyto(live[name], p)
        snapshots.append(net.get_state())

    assert result.epochs_run == config.max_epochs and step == 3 * 5
    want = snapshots[result.best_epoch - 1]
    got = result.detector.network.get_state()
    assert got.keys() == want.keys()
    for name, value in want.items():
        assert np.array_equal(got[name], value), name


@pytest.mark.parametrize("arch", ["BTN-(8)-(4)-(8*)-BTN*", "(8)-(4)-(8*)"])
@pytest.mark.parametrize("features", [1, 6])
def test_window_score_equals_the_float64_time_mean(arch, features, rng):
    """The score sums a float64 copy of the squared errors over time, which
    must give the bits of numpy's float64 mean, across a chunk boundary."""
    steps = 30
    network = build_network(parse_architecture(arch), steps, features, rng)
    for n in (_SCORE_CHUNK + 37, _SCORE_CHUNK + 1):
        windows = rng.normal(size=(n, steps, features)).astype(np.float32)
        want = []
        for chunk in np.array_split(windows, -(-n // _SCORE_CHUNK)):
            resid = network.forward(chunk, training=False) - chunk
            want.append((resid * resid).mean(axis=1, dtype=np.float64))
        got = _score_window_array(network, windows)
        assert got.dtype == np.float64
        assert np.array_equal(got, np.concatenate(want))


@pytest.mark.parametrize("arch", ["BTN-(8)-(4)-(8*)-BTN*", "(8)-(4)-(8*)"])
def test_prepared_windows_score_with_the_bits_of_a_scoring_pass(arch, rng):
    """A fit makes its validation chunks once, standardized for a
    temporal-norm-first network; scoring them gives the bits of scoring the
    windows, over three chunks of an overlapping view."""
    network = build_network(parse_architecture(arch), 30, 6, rng)
    series = rng.normal(size=(2 * _SCORE_CHUNK + 60, 6)).cumsum(axis=0).astype(np.float32)
    windows = np.lib.stride_tricks.sliding_window_view(series, 30, axis=0).swapaxes(1, 2)
    inputs = _prepared_inputs(network, windows)
    assert len(inputs) == 3
    want = _score_window_array(network, windows)
    assert np.array_equal(_score_inputs(network, inputs), want)
    assert np.array_equal(_score_inputs(network, inputs), want)  # held, not spent


def test_window_score_does_not_depend_on_its_chunk(rng):
    """Scoring one window more than a chunk holds gives the bits of one pass
    over all the windows: no window lands in a chunk so small that BLAS
    multiplies it with another kernel."""
    network = build_network(parse_architecture(SELECTED_ARCHITECTURE), 30, 6, rng)
    windows = rng.normal(size=(_SCORE_CHUNK + 1, 30, 6)).astype(np.float32)
    resid = network.forward(windows, training=False) - windows
    want = (resid * resid).mean(axis=1, dtype=np.float64)
    assert np.array_equal(_score_window_array(network, windows), want)


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
