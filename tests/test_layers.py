"""Forward-pass behavior of the network layers."""

import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from dbdiag import (
    SELECTED_ARCHITECTURE,
    TABLE_ARCHITECTURES,
    Detector,
    GlobalNorm,
    TrainConfig,
    build_network,
    default_scenario,
    generate,
    load_model,
    parse_architecture,
    save_model,
    train,
)
from dbdiag.errors import ConfigError, InternalError
from dbdiag.nn import (
    Adam,
    BatchNorm,
    Dense,
    ReLU,
    Reshape,
    Standardized,
    TemporalNorm,
    TemporalNormReverse,
)
from dbdiag.nn.layers import _moment_backward, _sum


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
        flat = Reshape((3, 4), (12,)).forward(x)
        # element (t, f) lands at t*F + f
        assert flat[0, 1 * 4 + 2] == x[0, 1, 2]

    def test_roundtrip(self, rng):
        x = rng.normal(size=(2, 5, 3))
        back = Reshape((15,), (5, 3)).forward(Reshape((5, 3), (15,)).forward(x))
        np.testing.assert_array_equal(back, x)

    def test_flatten_shape_checked(self):
        with pytest.raises(ConfigError):
            Reshape((3, 4), (12,)).forward(np.zeros((1, 4, 3)))

    def test_reshape_width_checked(self):
        with pytest.raises(ConfigError):
            Reshape((12,), (3, 4)).forward(np.zeros((1, 11)))


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
        layer = TemporalNorm(3)
        x = rng.normal(size=(2, 6, 3))
        _, (mean, denom) = layer.forward(x, training=False)
        np.testing.assert_allclose(mean, x.mean(axis=1, keepdims=True))
        np.testing.assert_allclose(denom, x.std(axis=1, keepdims=True) + 1e-5)

    def test_short_window_rejected(self):
        with pytest.raises(ConfigError):
            TemporalNorm(1).forward(np.zeros((1, 1, 1)))


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
            rev.backward((np.zeros((1, 5, 2)), True))


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
        layer = BatchNorm(2)
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
        expect = -layer.running_mean / (layer.running_std + 1e-5)
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
    with the other thread's levels and get a silently wrong output. The
    windows are float32, as scoring feeds them, so a dense layer's cast of
    its weights is on the path: an inference pass may not keep it, or any
    other attribute.
    """
    net = build_network(parse_architecture("BTN-(12)-BN-(4)-BN*-(12*)-BTN*"), 10, 3, rng)
    net.forward(rng.normal(size=(6, 10, 3)).astype(np.float32), training=True)
    before = [dict(vars(layer)) for layer in net.layers]
    state = net.get_state()
    inputs = [(rng.normal(size=(4, 10, 3)) * 5.0 + 100.0 * (i + 1)).astype(np.float32)
              for i in range(2)]
    expected = [net.forward(x) for x in inputs]
    assert all(out.dtype == np.float32 for out in expected)
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
    for layer, old in zip(net.layers, before):
        new = vars(layer)
        assert new.keys() == old.keys(), layer.label
        assert [key for key in old if new[key] is not old[key]] == [], layer.label
    for name, value in net.get_state().items():
        assert np.array_equal(value, state[name]), name


def _traced_peak(run, unit):
    """The most memory NumPy and Python held at once while ``run()`` ran,
    in multiples of ``unit`` bytes; what existed before it is not counted."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / unit
    finally:
        tracemalloc.stop()


def test_selected_network_memory_stays_bounded(rng):
    """The temporal-norm pair expands its moments into buffers that become
    results or reuse freed memory, so neither scoring a chunk nor a training
    step holds more at once than with broadcast moments. Each bound is the
    peak measured with the broadcast layers; expanding the moments into
    fresh temporaries raises the chunk's to 4.07."""
    net = build_network(parse_architecture(SELECTED_ARCHITECTURE), 30, 6, rng)
    chunk = rng.normal(size=(4096, 30, 6)).astype(np.float32)
    # broadcast layers: 3.078 chunk sizes, in the reverse layer's forward
    assert _traced_peak(lambda: net.forward(chunk), chunk.nbytes) <= 3.08
    batch = rng.normal(size=(1500, 30, 6)).astype(np.float32)

    def step():
        out = net.forward(batch, training=True)
        net.backward(out - batch, input_grad=False)

    # broadcast layers: 10.847 batch sizes, in the first dense layer's backward
    assert _traced_peak(step, batch.nbytes) <= 10.85


def test_a_short_fit_pays_for_its_standardized_windows():
    """A temporal-norm-first fit keeps every training window's
    standardization, 1,412,136 bytes here, for the length of the fit. The
    bound is the peak of this fit when each batch was standardized on its
    own, 14,827,444 bytes, plus those arrays."""
    frame = generate(default_scenario(seed=3, duration_minutes=3000)).stats
    config = TrainConfig(max_epochs=2, patience=2)
    train(frame, config)  # a first fit also fills caches and imports
    assert _traced_peak(lambda: train(frame, config), 1) <= 14_827_444 + 1_412_136


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("feats", [1, 6])
def test_standardized_rows_match_a_batch_bit_for_bit(feats, dtype, rng):
    """Windows standardized once, in chunks, then gathered by rows give the
    norm, moments and layer output that ``standardize`` gives those rows as
    one batch: for batches of 1 and 2 windows, a full batch and the partial
    last one. With one feature ``_sum`` falls back to ``sum``."""
    frame = (rng.normal(size=(1200, feats)).cumsum(axis=0) * 3.0 + 40.0).astype(dtype)
    windows = sliding_window_view(frame, 30, axis=0).swapaxes(1, 2)
    ready = Standardized.of(windows, 1024)  # a full chunk and one of 147
    layer = TemporalNorm(feats)
    layer.gamma[:] = rng.normal(1.0, 0.3, feats)
    layer.beta[:] = rng.normal(0.0, 0.3, feats)
    order = rng.permutation(len(windows))
    for rows in (order[:1], order[:2], order[:500], order[1000:]):
        want_out, want_mean, want_std, want_denom = layer.standardize(windows[rows], True)
        want_norm = layer._cache[0]
        batch = ready.take(rows)
        out, (mean, denom) = layer.forward(batch, training=True)
        assert layer._cache[0] is batch.norm
        got = dict(out=out, norm=batch.norm, mean=mean, std=batch.std, denom=denom)
        want = dict(out=want_out, norm=want_norm, mean=want_mean, std=want_std,
                    denom=want_denom)
        for name, value in want.items():
            assert got[name].dtype == dtype, name
            assert np.array_equal(got[name], value), (name, len(rows))


def test_snapshot_is_isolated_from_later_training(rng):
    """Batch norm updates its running statistics and count in place, so a
    snapshot must not share them, and restoring it must write them back."""
    net = build_network(parse_architecture("BN-(6)-BN-(3)-BN*-(6*)-BN*"), 4, 2, rng)
    net.forward(rng.normal(size=(5, 4, 2)), training=True)
    snapshot = net.get_state()
    frozen = {name: value.copy() for name, value in snapshot.items()}
    live = {name: value for name, value in net.get_state().items()}
    net.forward(rng.normal(size=(5, 4, 2)) + 3.0, training=True)
    for name, value in frozen.items():
        assert np.array_equal(snapshot[name], value), name
    moved = [name for name, value in net.get_state().items()
             if not np.array_equal(value, live[name])]
    assert sorted(moved) == sorted(name for name in live if ".running_" in name
                                   or name.endswith(".updates"))
    net.set_state(snapshot)
    restored = net.get_state()
    assert restored.keys() == frozen.keys()
    for name, value in frozen.items():
        assert restored[name].dtype == value.dtype, name
        assert np.array_equal(restored[name], value), name
    assert net.layers[0].updates == 1


# Reference formulas for the normalization layers, written with numpy's
# mean/std/sum. The layers compute the same float operations in the same
# order with einsum and in-place updates, so they must agree bit for bit.

def _ref_moment_backward(d_norm, norm, denom, std, d_mean, d_std, count, axes):
    d_mean = d_mean - d_norm.sum(axis=axes, keepdims=True) / denom
    d_std = d_std - (d_norm * norm).sum(axis=axes, keepdims=True) / denom
    safe = np.where(std > 0.0, std, 1.0)
    dstd_dx = np.where(std > 0.0, norm * denom / (count * safe), 0.0)
    return d_norm / denom + d_mean / count + d_std * dstd_dx


def _ref_pair(x, y, grad_out, grad_mid, fwd, rev):
    """Forward and backward of a BTN ... BTN* pair around a stand-in middle:
    ``y`` plays the decoder output fed to BTN*, ``grad_mid`` the gradient
    coming back from the middle into BTN."""
    mean = x.mean(axis=1, keepdims=True)
    std = x.std(axis=1, keepdims=True)
    denom = std + fwd.EPSILON
    norm = (x - mean) / denom
    out = fwd.gamma * norm + fwd.beta
    scaled = rev.gamma * y + rev.beta
    restored = scaled * denom + mean
    rev_d_gamma = (grad_out * y * denom).sum(axis=(0, 1))
    rev_d_beta = (grad_out * denom).sum(axis=(0, 1))
    d_mean = grad_out.sum(axis=1, keepdims=True)
    d_denom = (grad_out * scaled).sum(axis=1, keepdims=True)
    rev_dx = grad_out * rev.gamma * denom
    fwd_d_gamma = (grad_mid * norm).sum(axis=(0, 1))
    fwd_d_beta = grad_mid.sum(axis=(0, 1))
    dx = _ref_moment_backward(grad_mid * fwd.gamma, norm, denom, std, d_mean,
                              d_denom, x.shape[1], axes=1)
    return dict(out=out, mean=mean, denom=denom, restored=restored,
                rev_dx=rev_dx, d_mean=d_mean, d_denom=d_denom,
                rev_d_gamma=rev_d_gamma, rev_d_beta=rev_d_beta,
                dx=dx, fwd_d_gamma=fwd_d_gamma, fwd_d_beta=fwd_d_beta)


def _random_batch(rng, dtype):
    return (rng.normal(size=(64, 30, 6)) * 4.0 + 50.0).astype(dtype, copy=False)


def _tiny_alternating(n):
    """A zero-mean series whose squares underflow: std is 0 but the centred
    values are not, the only case in which the std path's zero mask changes
    ``dstd_dx``."""
    return 1e-170 * (-1.0) ** np.arange(n)


def _zero_std_series(rng, dtype):
    x = rng.normal(size=(5, 12, 4))
    x[2, :, 1] = 3.5
    x[3, :, 2] = _tiny_alternating(12)
    return x.astype(dtype, copy=False)


def _window_view(rng, dtype):
    frame = rng.normal(size=(300, 6)).cumsum(axis=0).astype(dtype, copy=False)
    windows = sliding_window_view(frame, 30, axis=0).swapaxes(1, 2)[::7]
    assert not windows.flags.c_contiguous
    return windows


def _single_window_two_steps(rng, dtype):
    return rng.normal(size=(1, 2, 3)).astype(dtype, copy=False)


def _single_feature(rng, dtype):
    return (rng.normal(size=(40, 50, 1)) * 2.0 - 7.0).astype(dtype, copy=False)


def _in_dtype(layer, dtype):
    """The parameters ``_ref_pair`` reads, cast as the layer casts them."""
    return SimpleNamespace(gamma=layer.gamma.astype(dtype), beta=layer.beta.astype(dtype),
                           EPSILON=TemporalNorm.EPSILON)


# float32 is the dtype training and scoring run in; _zero_std_series is left
# out of it because its 1e-170 values underflow there.
@pytest.mark.parametrize("make_input, dtype", [
    *(pytest.param(make, np.float64, id=make.__name__)
      for make in (_random_batch, _zero_std_series, _window_view,
                   _single_window_two_steps, _single_feature)),
    *(pytest.param(make, np.float32, id=f"{make.__name__}-float32")
      for make in (_random_batch, _window_view, _single_window_two_steps,
                   _single_feature))])
def test_temporal_norm_pair_matches_reference_bit_for_bit(make_input, dtype, rng):
    x = make_input(rng, dtype)
    batch, steps, feats = x.shape
    fwd = TemporalNorm(feats)
    rev = TemporalNormReverse(feats)
    for layer in (fwd, rev):
        layer.gamma[:] = rng.normal(1.0, 0.3, feats)
        layer.beta[:] = rng.normal(0.0, 0.3, feats)
    y = rng.normal(size=x.shape).astype(dtype, copy=False)
    grad_out = rng.normal(size=x.shape).astype(dtype, copy=False)
    grad_mid = rng.normal(size=x.shape).astype(dtype, copy=False)
    ref = _ref_pair(x, y, grad_out, grad_mid, _in_dtype(fwd, dtype), _in_dtype(rev, dtype))

    out, (mean, denom) = fwd.forward(x, training=True)
    restored = rev.forward((y, (mean, denom)), training=True)
    rev_dx, (handed_grad, scaled) = rev.backward((grad_out, True))
    # without an input gradient the reverse hands nothing over
    rev_only, handed = rev.backward((grad_out, False))
    assert handed is None and np.array_equal(rev_only, rev_dx)
    dx = fwd.backward((grad_mid, (handed_grad, scaled)))
    # the moment gradients, reduced from the handed arrays as TemporalNorm does
    d_mean = _sum("bf", handed_grad)
    d_denom = _sum("bf", handed_grad, scaled)
    got = dict(out=out, mean=mean, denom=denom, restored=restored,
               rev_dx=rev_dx, d_mean=d_mean, d_denom=d_denom,
               rev_d_gamma=rev.d_gamma, rev_d_beta=rev.d_beta,
               dx=dx, fwd_d_gamma=fwd.d_gamma, fwd_d_beta=fwd.d_beta)
    for name, want in ref.items():
        # parameter gradients are stored float64, upcast from the input dtype
        stored = np.float64 if "_d_" in name else dtype
        assert got[name].dtype == stored, name
        assert np.array_equal(got[name], want.astype(stored)), name

    fwd.d_gamma.fill(np.nan)
    fwd.d_beta.fill(np.nan)
    assert fwd.backward((grad_mid, None)) is None
    assert np.array_equal(fwd.d_gamma, ref["fwd_d_gamma"])
    assert np.array_equal(fwd.d_beta, ref["fwd_d_beta"])


def test_std_path_is_zero_where_std_is_zero():
    # Centred values this small square to 0, so std is 0 while norm is not;
    # only the mask keeps the std path out of that feature's gradient.
    norm = np.full((1, 4, 2), 1e-160)
    std = np.array([[[0.0, 0.5]]])
    denom = std + 1e-5
    grad = np.zeros(norm.shape)
    d_std = np.ones((1, 1, 2))
    got = _moment_backward(grad, np.ones(2), norm, denom, std, 0.0, d_std)
    want = _ref_moment_backward(grad, norm, denom, std, 0.0, d_std, 4, axes=1)
    assert np.array_equal(got, want)
    assert np.all(got[..., 0] == 0.0) and np.all(got[..., 1] != 0.0)


@pytest.mark.parametrize("shape", [(32, 5), (6, 9, 4), (1500, 150), (64, 30, 6),
                                   (40, 1), (7, 11, 1), (1, 5), (1, 3, 4)])
def test_batch_norm_backward_matches_reference_bit_for_bit(shape, rng):
    """Forward, running statistics and backward of a training pass against
    numpy's mean, std and sum, on flat and [batch, T, F] input, in float64
    and float32."""
    for dtype in (np.float64, np.float32):
        x = rng.normal(size=shape) * 3.0 + 1.0
        if shape[-1] >= 3:
            x[..., 1] = 2.0  # constant and underflowing features have std == 0
            x[..., 2] = _tiny_alternating(x.size // shape[-1]).reshape(shape[:-1])
        x = x.astype(dtype, copy=False)
        layer = BatchNorm(shape[-1])
        layer.gamma[:] = rng.normal(1.0, 0.3, shape[-1])
        layer.beta[:] = rng.normal(0.0, 0.3, shape[-1])
        gamma, beta = layer.gamma.astype(dtype), layer.beta.astype(dtype)
        grad = rng.normal(size=shape).astype(dtype, copy=False)
        axes = tuple(range(x.ndim - 1))
        mean = x.mean(axis=axes)
        std = x.std(axis=axes)
        denom = std + layer.EPSILON
        norm = (x - mean) / denom
        want = _ref_moment_backward(grad * gamma, norm, denom, std, 0.0, 0.0,
                                    x.size // shape[-1], axes=axes)
        out = layer.forward(x, training=True)
        assert out.dtype == dtype and np.array_equal(out, gamma * norm + beta)
        assert np.array_equal(layer.running_mean, 0.9 * np.zeros(shape[-1]) + 0.1 * mean)
        assert np.array_equal(layer.running_std, 0.9 * np.ones(shape[-1]) + 0.1 * std)
        dx = layer.backward(grad)
        assert dx.dtype == dtype and np.array_equal(dx, want), dtype
        assert np.array_equal(layer.d_gamma, (grad * norm).sum(axis=axes)), dtype
        assert np.array_equal(layer.d_beta, grad.sum(axis=axes)), dtype


@pytest.mark.parametrize("text", TABLE_ARCHITECTURES)
def test_training_pass_never_writes_its_inputs(text, rng):
    """Layers update only arrays they allocated; a write to the input batch or
    the upstream gradient would raise on these read-only arrays. The training
    pass (``input_grad=False``) runs first, on gradients filled with NaN, so a
    parameter gradient it failed to write stays NaN, and must match the full
    backward's bit for bit. Each layer's backward is wrapped in a one-argument
    function, as a tracer wrapping the layers does, so a per-layer keyword
    would raise."""
    net = build_network(parse_architecture(text), 8, 3, rng)
    for layer in net.layers:
        layer.backward = lambda g, backward=layer.backward: backward(g)
    x = rng.normal(size=(5, 8, 3)) * 2.0 + 10.0
    grad = rng.normal(size=x.shape)
    x.flags.writeable = False
    grad.flags.writeable = False
    out = net.forward(x, training=True)
    assert out.shape == x.shape
    net.grads.fill(np.nan)
    assert net.backward(grad, input_grad=False) is None
    got = net.grads.copy()
    net.forward(x, training=True)
    assert net.backward(grad).shape == x.shape
    assert np.isfinite(got).all()
    assert np.array_equal(got, net.grads)


def _gradients(net):
    """Each trainable parameter's ``d_<name>`` array, by parameter name."""
    return {name: getattr(net.layers[int(name.split(":")[0])], f"d_{name.rsplit('.', 1)[1]}")
            for name in net.parameters()}


@pytest.mark.parametrize("text", TABLE_ARCHITECTURES)
def test_parameters_are_views_of_one_flat_layout(text, rng, tmp_path):
    """Every parameter and its gradient are views of their slices of the
    network's two flat vectors, which the slices tile in layout order; the
    weights of the dense layers, and nothing else, form the ``decayed``
    slice; ``set_state`` and ``load_model`` write ``values``; and an in-place
    edit of a ``parameters()`` entry reaches ``values``."""
    net = build_network(parse_architecture(text), 8, 3, rng)
    params, grads = net.parameters(), _gradients(net)
    assert params.keys() == net.layout.keys()
    offset = 0
    for name, part in net.layout.items():
        assert part.start == offset and params[name].size == part.stop - offset, name
        assert np.shares_memory(params[name], net.values[part]), name
        assert np.shares_memory(grads[name], net.grads[part]), name
        assert np.array_equal(params[name].ravel(), net.values[part]), name
        offset = part.stop
    assert offset == net.values.size == net.grads.size

    dense_weights = [name for name in params
                     if name.split(":")[1].startswith("dense") and name.endswith(".weights")]
    assert net.decayed.start == 0
    assert [name for name, part in net.layout.items()
            if part.stop <= net.decayed.stop] == dense_weights
    assert net.decayed.stop == sum(params[name].size for name in dense_weights)

    def laid_out(network):
        return np.concatenate([network.parameters()[name].ravel()
                               for name in network.layout])

    state = {name: value + rng.normal(size=value.shape) if name in params else value
             for name, value in net.get_state().items()}
    net.set_state(state)
    assert np.array_equal(net.values, laid_out(net))
    assert np.array_equal(net.values, np.concatenate([state[name].ravel()
                                                      for name in net.layout]))

    path = str(tmp_path / "model.json")
    save_model(Detector(net, GlobalNorm(("a", "b", "c"), np.zeros(3), np.ones(3)), 8),
               path)
    loaded = load_model(path).network
    assert np.array_equal(loaded.values, laid_out(loaded))
    assert np.array_equal(loaded.values, net.values)

    name = next(name for name in params if name.endswith("dense_out.bias"))
    before = net.values.copy()
    params[name] += 1e-9
    changed = np.flatnonzero(net.values != before)
    assert changed.size and np.all((changed >= net.layout[name].start)
                                   & (changed < net.layout[name].stop))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("text", TABLE_ARCHITECTURES)
def test_layers_compute_in_the_input_dtype(text, dtype, rng):
    """A batch's dtype carries through the forward pass and the input
    gradient, so no layer promotes float32 to float64; a float64 batch runs
    in float64 end to end. Each parameter gradient is stored float64 and
    holds a value of the input dtype, the upcast of a gradient computed in
    it. Adam updates the float64 parameters from them, and every state array
    keeps its dtype."""
    net = build_network(parse_architecture(text), 8, 3, rng)
    state = net.get_state()
    assert all(value.dtype == np.float64 for name, value in state.items()
               if not name.endswith(".updates"))
    optimizer = Adam(net.values, net.layout)
    x = (rng.normal(size=(5, 8, 3)) * 2.0 + 10.0).astype(dtype)
    out = net.forward(x, training=True)
    assert out.dtype == dtype
    assert net.backward(rng.normal(size=x.shape).astype(dtype)).dtype == dtype
    for name, g in _gradients(net).items():
        assert g.dtype == np.float64, name
        assert np.array_equal(g, g.astype(dtype).astype(np.float64)), name
    if dtype == np.float64:
        # a float64 gradient differs from its float32 rounding almost always
        assert not np.array_equal(net.grads, net.grads.astype(np.float32))
    optimizer.step(net.grads)
    after = net.get_state()
    assert {name: v.dtype for name, v in after.items()} == \
        {name: v.dtype for name, v in state.items()}
    assert any(not np.array_equal(after[name], state[name]) for name in net.layout)
    assert net.forward(x, training=False).dtype == dtype
