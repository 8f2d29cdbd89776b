"""Training loss.

The objective sums squared residuals over every feature and time step and
divides by the number of windows in the batch only, so the loss of one
window is the sum (not mean) of its elementwise squared errors. Reported
quality metrics elsewhere use per-element means; this module is just the
optimization target and its gradient.
"""

from __future__ import annotations

import numpy as np

from ..errors import InternalError


def squared_error(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """The batch's summed squared error and the gradient wrt ``pred`` of the
    objective, that sum divided by the number of windows. The sum
    accumulates in float64; the gradient is built in place on the residual,
    a new array in the dtype of ``pred``."""
    if pred.shape != target.shape:
        raise InternalError(f"loss shape mismatch: {pred.shape} vs {target.shape}")
    if pred.shape[0] == 0:
        raise InternalError("loss over an empty batch")
    resid = pred - target
    total = float(np.sum(resid * resid, dtype=np.float64))
    resid *= 2.0
    resid /= pred.shape[0]
    return total, resid
