"""Layer stack with flat parameter naming and state snapshots."""

from __future__ import annotations

import numpy as np

from ..errors import InternalError
from .layers import Layer, TemporalNorm, TemporalNormReverse


class Network:
    """An ordered stack of layers run as one model.

    Parameters are addressed as ``"<index>:<label>.<name>"`` so optimizers
    and serializers can treat the whole network as a flat dict. Snapshots
    hold each layer's ``state()``, which adds the non-trainable batch-norm
    running stats, so a restored network scores identically.
    """

    def __init__(self, layers: list[Layer], arch_text: str):
        self.layers = layers
        self.arch_text = arch_text
        self._forward_was_training = False

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        # Each TemporalNorm's moments go, last in first out, to the
        # TemporalNormReverse that closes its pair; backward hands the
        # arrays its moment gradients come from the other way.
        out = x
        moments = []
        for layer in self.layers:
            if isinstance(layer, TemporalNormReverse):
                out = (out, moments.pop())
            out = layer.forward(out, training=training)
            if isinstance(layer, TemporalNorm):
                out, m = out
                moments.append(m)
        self._forward_was_training = training
        return out

    def backward(self, grad: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Set every layer's parameter gradients from the gradient wrt the
        output; returns the gradient wrt the input, or None when
        ``input_grad`` is False.

        Training reads only the parameter gradients. With ``input_grad``
        False a ``TemporalNorm`` that is the first layer, as every parsed
        architecture with BTN has it, gets None for its pair's hand-over and
        skips its moment gradients and input gradient, which no layer below
        it reads. The parameter gradients are bit-identical either way.
        Other networks still compute their first layer's input gradient.
        """
        if not self._forward_was_training:
            raise InternalError("backward requires a preceding training-mode forward pass")
        out = grad
        handed = []
        for layer in reversed(self.layers):
            if isinstance(layer, TemporalNorm):
                pair = handed.pop()
                out = (out, pair if input_grad or layer is not self.layers[0] else None)
            out = layer.backward(out)
            if isinstance(layer, TemporalNormReverse):
                out, pair = out
                handed.append(pair)
        return out if input_grad else None

    def _named(self, method: str) -> dict[str, np.ndarray]:
        """Every layer's ``method()`` entries under ``"<index>:<label>.<name>"``."""
        return {f"{i}:{layer.label}.{name}": value
                for i, layer in enumerate(self.layers)
                for name, value in getattr(layer, method)().items()}

    def parameters(self) -> dict[str, np.ndarray]:
        return self._named("params")

    def gradients(self) -> dict[str, np.ndarray]:
        grads = self._named("grads")
        for name, g in grads.items():
            if g is None:
                raise InternalError(f"gradient for {name} not computed")
        return grads

    def get_state(self) -> dict[str, np.ndarray]:
        """Copies of all trainable parameters plus running statistics."""
        return {name: value.copy() for name, value in self._named("state").items()}

    def set_state(self, state: dict[str, np.ndarray]) -> None:
        """Restore a snapshot; it must hold exactly this network's entries.
        ``copyto`` casts only within a kind, so a float cannot restore an
        integer entry such as an update count."""
        live = self._named("state")
        missing = [name for name in live if name not in state]
        unknown = [name for name in state if name not in live]
        if missing or unknown:
            raise InternalError(
                f"state does not match the network: missing "
                f"[{', '.join(missing)}], unknown [{', '.join(unknown)}]")
        for name, value in state.items():
            if np.shape(value) != live[name].shape:
                raise InternalError(f"state shape mismatch for {name}: "
                                    f"{live[name].shape} vs {np.shape(value)}")
            np.copyto(live[name], value)
