"""Adam optimizer.

Standard formulation with bias-corrected first and second moments. The step
count increments once per ``step()`` call, not per parameter, so every
parameter sees the same bias correction.

Adam works on the flat vectors a ``Network`` lays its parameters out in: it
updates ``values``, the float64 parameters, from ``grads``, the float64
gradient of the same layout, and holds the moments of all parameters in two
flat float64 vectors of that size. A step checks the gradient once, runs the
per-element operations of the textbook recurrence in their usual order on
whole vectors and subtracts the result from ``values`` in place; it copies no
gradient and never writes ``grads``. The operations are elementwise, so each
parameter gets the same bits as a per-parameter loop would give it, from a
few dozen NumPy calls per step rather than about twenty per parameter.
"""

from __future__ import annotations

import numpy as np

from ..errors import TrainingError


class Adam:
    BETA1 = 0.9
    BETA2 = 0.999
    EPSILON = 1e-8

    def __init__(self, values: np.ndarray, layout: dict[str, slice],
                 learning_rate: float = 0.001):
        """``layout`` names each parameter's slice of ``values``, in order;
        only an error message reads it."""
        if learning_rate <= 0.0:
            raise TrainingError(f"learning rate must be positive, got {learning_rate}")
        self.values = values
        self.layout = layout
        self.learning_rate = learning_rate
        self.t = 0
        self._m = np.zeros_like(values)
        self._v = np.zeros_like(values)

    def step(self, grads: np.ndarray) -> None:
        """One update from ``grads``, the gradient laid out as ``values``.

        A non-finite gradient raises ``TrainingError`` naming the first such
        parameter in layout order, before any parameter, moment or the step
        count moves.
        """
        if not np.isfinite(grads).all():
            name = next(name for name, part in self.layout.items()
                        if not np.isfinite(grads[part]).all())
            raise TrainingError(f"non-finite gradient in parameter {name!r}")
        # The two scratch vectors live for the step only, so they never add
        # to the memory a training pass holds between steps.
        m, v = self._m, self._v
        self.t += 1
        m *= self.BETA1
        work = np.multiply(1.0 - self.BETA1, grads)
        m += work
        v *= self.BETA2
        sq = np.multiply(grads, grads)
        np.multiply(1.0 - self.BETA2, sq, out=sq)
        v += sq
        np.divide(m, 1.0 - self.BETA1 ** self.t, out=work)    # m_hat
        np.divide(v, 1.0 - self.BETA2 ** self.t, out=sq)      # v_hat
        np.multiply(self.learning_rate, work, out=work)
        np.sqrt(sq, out=sq)
        sq += self.EPSILON
        work /= sq
        self.values -= work
