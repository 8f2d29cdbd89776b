"""Adam optimizer.

Standard formulation with bias-corrected first and second moments. The step
count increments once per ``step()`` call, not per parameter, so every
parameter sees the same bias correction.

The moments of all parameters live in two flat float64 vectors, each
parameter owning a fixed slice, and a step updates them as one vector: it
copies every gradient into one float64 vector (a float32 gradient is upcast
exactly), then runs the per-element operations of the textbook recurrence in
their usual order and subtracts each parameter's slice of the result in
place. The operations are elementwise, so each float64 parameter gets the
same bits as a per-parameter loop would give it, from a few dozen NumPy calls
per step rather than about twenty per parameter.
"""

from __future__ import annotations

import numpy as np

from ..errors import TrainingError


class Adam:
    BETA1 = 0.9
    BETA2 = 0.999
    EPSILON = 1e-8

    def __init__(self, params: dict[str, np.ndarray], learning_rate: float = 0.001):
        if learning_rate <= 0.0:
            raise TrainingError(f"learning rate must be positive, got {learning_rate}")
        self.params = params
        self.learning_rate = learning_rate
        self.t = 0
        size = sum(p.size for p in params.values())
        self._m = np.zeros(size)
        self._v = np.zeros(size)
        # each parameter's name, array and slice of the flat vectors
        self._slots = []
        offset = 0
        for name, p in params.items():
            self._slots.append((name, p, slice(offset, offset + p.size)))
            offset += p.size

    def step(self, grads: dict[str, np.ndarray]) -> None:
        """One update from ``grads``, a gradient for every parameter.

        A missing or non-finite gradient raises ``TrainingError`` naming the
        first such parameter in dict order, before any parameter, moment or
        the step count moves.
        """
        # The two scratch vectors live for the step only, so they never add
        # to the memory a training pass holds between steps.
        g = np.empty_like(self._m)
        for i, (name, param, part) in enumerate(self._slots):
            grad = grads.get(name)
            if grad is None:
                self._refuse_non_finite(g, i)
                raise TrainingError(f"no gradient for parameter {name!r}")
            np.copyto(g[part].reshape(param.shape), grad)
        if not np.isfinite(g).all():
            self._refuse_non_finite(g, len(self._slots))
        m, v = self._m, self._v
        self.t += 1
        m *= self.BETA1
        work = np.multiply(1.0 - self.BETA1, g)
        m += work
        v *= self.BETA2
        np.multiply(g, g, out=g)
        np.multiply(1.0 - self.BETA2, g, out=g)
        v += g
        np.divide(m, 1.0 - self.BETA1 ** self.t, out=work)    # m_hat
        np.divide(v, 1.0 - self.BETA2 ** self.t, out=g)       # v_hat
        np.multiply(self.learning_rate, work, out=work)
        np.sqrt(g, out=g)
        g += self.EPSILON
        work /= g
        for _, param, part in self._slots:
            param -= work[part].reshape(param.shape)

    def _refuse_non_finite(self, g: np.ndarray, count: int) -> None:
        """Raise for the first of the first ``count`` gradients copied into
        ``g`` that holds a non-finite value."""
        for name, _, part in self._slots[:count]:
            if not np.isfinite(g[part]).all():
                raise TrainingError(f"non-finite gradient in parameter {name!r}")
