"""Finite-difference gradient verification.

Confirms the analytic backward passes against central differences on small
random networks, for criterion 1 and ``test_gradients.py``.
"""

from __future__ import annotations

import numpy as np

from dbdiag.nn import Network, ReLU, TemporalNorm, TemporalNormReverse, squared_error

# central-difference step of numeric_gradients
STEP = 1e-5
# relative_error's denominator floor
FLOOR = 1e-4


def analytic_gradients(net: Network, x: np.ndarray,
                       target: np.ndarray) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """One forward/backward pass of the training objective; returns (param
    grads by name, as views into ``net.grads``, input grad)."""
    _, grad = squared_error(net.forward(x, training=True), target)
    d_input = net.backward(grad)
    return {name: net.grads[net.layout[name]].reshape(p.shape)
            for name, p in net.parameters().items()}, d_input


def numeric_gradients(net: Network, x: np.ndarray,
                      target: np.ndarray) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Central-difference gradients of the loss wrt every parameter and the input.

    Batch-stat layers must see training=True here as well, otherwise the
    perturbed losses would be computed under different statistics than the
    analytic pass. Running-stat side effects do not matter because they never
    feed back into training-mode outputs.
    """

    def loss_at() -> float:
        return squared_error(net.forward(x, training=True), target)[0] / x.shape[0]

    param_grads = {}
    for name, p in net.parameters().items():
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + STEP
            hi = loss_at()
            flat[i] = orig - STEP
            lo = loss_at()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * STEP)
        param_grads[name] = g

    d_input = np.zeros_like(x)
    xflat = x.reshape(-1)
    gflat = d_input.reshape(-1)
    for i in range(xflat.size):
        orig = xflat[i]
        xflat[i] = orig + STEP
        hi = loss_at()
        xflat[i] = orig - STEP
        lo = loss_at()
        xflat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * STEP)
    return param_grads, d_input


def min_kink_distance(net: Network, x: np.ndarray) -> float:
    """Smallest |pre-activation| seen by any ReLU on this input.

    The loss is nondifferentiable where a pre-activation is exactly zero
    (which really happens: zero-initialized biases plus an all-negative
    bottleneck row produce exact zeros). Finite differences straddle such
    kinks and disagree with the analytic subgradient, so checks should
    resample configurations whose distance is below the step size.
    """
    smallest = np.inf
    out = x
    for layer in net.layers:
        if isinstance(layer, TemporalNormReverse):
            break  # closes the stack; no ReLU follows it
        if isinstance(layer, ReLU):
            smallest = min(smallest, float(np.abs(out).min()))
        out = layer.forward(out, training=True)
        if isinstance(layer, TemporalNorm):
            out, _ = out
    return smallest


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """max |a-b| / max(FLOOR, |a|+|b|), elementwise then reduced.

    The floor keeps structurally zero gradients honest: a bias feeding a
    batch-stat layer has a true gradient of exactly zero, where central
    differences return pure roundoff noise (~1e-10). Entries below the floor
    are effectively compared absolutely, at floor times the caller's
    tolerance; everything larger is compared relatively.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = np.maximum(np.abs(a) + np.abs(b), FLOOR)
    return float(np.max(np.abs(a - b) / denom))
