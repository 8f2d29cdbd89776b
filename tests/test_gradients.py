"""Analytic backward passes vs central finite differences.

The full sweep (every layer kind, 20+ configurations each) lives in the
acceptance suite; this module keeps a quick per-kind check close to the layer
code plus the edge cases that once bit: structurally-zero gradients and exact
ReLU kinks.
"""

import numpy as np
import pytest

from dbdiag import SELECTED_ARCHITECTURE, TABLE_ARCHITECTURES, build_network, parse_architecture
from dbdiag.nn import BatchNorm, Dense, TemporalNorm, TemporalNormReverse, squared_error

from gradcheck import (
    analytic_gradients,
    min_kink_distance,
    numeric_gradients,
    relative_error,
)

TOL = 1e-4


def checked_case(arch: str, steps: int, feats: int, batch: int, seed: int):
    """Build a net, nudge params off their init, and reject kink-adjacent draws.

    Zero-initialized biases make exact-zero pre-activations a real event (an
    all-negative bottleneck row feeding a dense layer produces them with
    certainty), and central differences straddle the kink. Resampling until
    every pre-activation clears the step size keeps the comparison meaningful.
    """
    for attempt in range(20):
        rng = np.random.default_rng((seed, attempt))
        net = build_network(parse_architecture(arch), steps, feats, rng)
        for p in net.parameters().values():
            p += rng.normal(0.0, 0.15, p.shape)
        x = rng.normal(size=(batch, steps, feats))
        target = rng.normal(size=(batch, steps, feats))
        if min_kink_distance(net, x) > 1e-3:
            return net, x, target
    raise AssertionError(f"no kink-free draw found for {arch}")


def max_error(net, x, target) -> float:
    ana, d_in = analytic_gradients(net, x, target)
    num, d_in_num = numeric_gradients(net, x, target)
    worst = relative_error(d_in, d_in_num)
    for name, g in ana.items():
        worst = max(worst, relative_error(g, num[name]))
    return worst


@pytest.mark.parametrize("arch", [
    "(6)-(3)-(6*)",
    "BTN-(6)-(3)-(6*)-BTN*",
    "BN-(6)-(3)-(6*)-BN*",
    "(6)-BN-(3)-BN*-(6*)",
    "BTN-(5)-BN-(3)-BN*-(5*)-BTN*",
    "BTN-BN-(6)-(3)-(6*)-BN*-BTN*",
    "PCA-network (3)",
    "PCA-network (3) with BTN",
])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_each_family_matches_finite_differences(arch, seed):
    net, x, target = checked_case(arch, steps=4, feats=2, batch=3, seed=seed)
    assert max_error(net, x, target) < TOL


def _unfold(net):
    """Undo the fold the network set up: each layer of the temporal-norm pair
    runs its own scale-shift again, layer by layer, in training too."""
    for layer in net.layers:
        if isinstance(layer, Dense):
            layer.fold_in = layer.fold_out = None
        elif isinstance(layer, (TemporalNorm, TemporalNormReverse)):
            layer.folded = False
    return net


@pytest.mark.parametrize("arch", [SELECTED_ARCHITECTURE, "PCA-network (3) with BTN"])
@pytest.mark.parametrize("input_grad", [True, False])
def test_folded_step_matches_the_layer_by_layer_step(arch, input_grad):
    """In float64, a training step with the pair's scale-shift folded into
    the first and last dense layers gives every parameter gradient, and the
    input gradient, of the unfolded step to 1e-12 relative."""
    spec = parse_architecture(arch)
    folded = build_network(spec, 30, 6, np.random.default_rng(3))
    unfolded = _unfold(build_network(spec, 30, 6, np.random.default_rng(3)))
    first, out = folded.layers[2], folded.layers[-3]
    assert first.fold_in is folded.layers[0] and out.fold_out is folded.layers[-1]
    rng = np.random.default_rng(4)
    values = folded.values + rng.normal(0.0, 0.3, folded.values.shape)
    np.copyto(folded.values, values)
    np.copyto(unfolded.values, values)
    x = rng.normal(size=(40, 30, 6)) * 2.0 + 5.0
    target = rng.normal(size=x.shape)
    d_inputs = []
    for net in (folded, unfolded):
        _, grad = squared_error(net.forward(x, training=True), target)
        d_inputs.append(net.backward(grad, input_grad=input_grad))
    for name, part in folded.layout.items():
        want = unfolded.grads[part]
        assert np.abs(folded.grads[part] - want).max() <= 1e-12 * np.abs(want).max(), name
    if input_grad:
        got, want = d_inputs
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    else:
        assert d_inputs == [None, None]


@pytest.mark.parametrize("arch", TABLE_ARCHITECTURES + ("BTN-BN-(6)-(3)-(6*)-BN*-BTN*",))
def test_only_a_lead_of_one_temporal_norm_folds(arch):
    """The fold needs the pair right beside the first and last dense layers:
    every temporal-norm row of the table has it, and a ``BTN-BN`` lead or a
    network without a temporal norm trains layer by layer."""
    net = build_network(parse_architecture(arch), 4, 2, np.random.default_rng(0))
    folds = [(layer.fold_in, layer.fold_out) for layer in net.layers
             if isinstance(layer, Dense)]
    lead = net.layers[0]
    if "BTN" in arch and not arch.startswith("BTN-BN"):
        assert folds[0] == (lead, None) and folds[-1] == (None, net.layers[-1])
        assert all(fold == (None, None) for fold in folds[1:-1])
        assert lead.folded and net.layers[-1].folded
    else:
        assert all(fold == (None, None) for fold in folds)
        assert not getattr(lead, "folded", False)


def test_moment_routing_through_the_paired_layer():
    """The denormalizing layer must push moment gradients back to its twin.

    If that routing were dropped, the input gradient of a paired model would
    be wrong while every per-layer check still passed; this exercises the
    whole chain on a wider window where the moment terms are not negligible.
    """
    net, x, target = checked_case("BTN-(4)-(2)-(4*)-BTN*",
                                  steps=8, feats=3, batch=2, seed=7)
    assert max_error(net, x, target) < TOL


def test_structurally_zero_gradient_is_reported_zero(rng):
    """A bias feeding straight into batch normalization cannot move the loss.

    Normalization subtracts the batch mean, so a per-unit constant shift is
    invisible downstream; the analytic gradient must come out exactly zero
    (this is why the comparison uses a floored relative error: central
    differences return roundoff noise here, not zero).
    """
    dense = Dense(3, 2, rng)
    bn = BatchNorm(2)
    x = rng.normal(size=(5, 3))
    target = rng.normal(size=(5, 2))
    out = bn.forward(dense.forward(x, training=True), training=True)
    dense.backward(bn.backward(squared_error(out, target)[1]))
    np.testing.assert_allclose(dense.d_bias, 0.0, atol=1e-12)


def test_constant_window_keeps_gradients_finite(rng):
    """Zero temporal variance hits the std==0 branch; nothing may blow up."""
    net = build_network(parse_architecture("BTN-(4)-(2)-(4*)-BTN*"), 5, 2, rng)
    x = np.zeros((2, 5, 2))
    x[1] = rng.normal(size=(5, 2))  # one constant sample, one live one
    target = rng.normal(size=(2, 5, 2))
    ana, d_in = analytic_gradients(net, x, target)
    assert np.isfinite(d_in).all()
    assert all(np.isfinite(g).all() for g in ana.values())


def test_relative_error_floor_handles_roundoff_noise():
    # true zero vs finite-difference noise must not read as disagreement
    a = np.array([0.0, 1.0])
    b = np.array([3e-10, 1.0 + 1e-9])
    assert relative_error(a, b) < 1e-5


def test_min_kink_distance_sees_the_smallest_preactivation(rng):
    net = build_network(parse_architecture("(3)-(3*)"), 2, 2, rng)
    x = rng.normal(size=(1, 2, 2))
    d = min_kink_distance(net, x)
    assert 0.0 < d < np.inf
