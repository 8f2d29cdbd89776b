"""Adam optimizer.

Standard formulation with bias-corrected first and second moments. The step
count increments once per ``step()`` call, not per parameter, so every
parameter sees the same bias correction. Each gradient is upcast to float64
once, so the moments and the parameters update in float64 whatever dtype
the layers computed in.
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
        self._m = {name: np.zeros_like(p) for name, p in params.items()}
        self._v = {name: np.zeros_like(p) for name, p in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        for name, param in self.params.items():
            g = grads.get(name)
            if g is None:
                raise TrainingError(f"no gradient for parameter {name!r}")
            g = g.astype(np.float64, copy=False)
            if not np.all(np.isfinite(g)):
                raise TrainingError(f"non-finite gradient in parameter {name!r}")
            m = self._m[name]
            v = self._v[name]
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * (g * g)
            m_hat = m / (1.0 - self.BETA1 ** self.t)
            v_hat = v / (1.0 - self.BETA2 ** self.t)
            param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.EPSILON)
