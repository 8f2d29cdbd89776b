"""Layer stack with flat parameter naming and state snapshots."""

from __future__ import annotations

import numpy as np

from ..errors import InternalError
from .layers import BatchNorm, Layer, TemporalNorm, TemporalNormReverse


class Network:
    """An ordered stack of layers run as one model.

    Parameters are addressed as ``"<index>:<label>.<name>"`` so optimizers
    and serializers can treat the whole network as a flat dict. Snapshots
    also carry the non-trainable state (batch-norm running stats) so a
    restored network scores identically.
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

    def parameters(self) -> dict[str, np.ndarray]:
        out = {}
        for i, layer in enumerate(self.layers):
            for name, p in layer.params().items():
                out[f"{i}:{layer.label}.{name}"] = p
        return out

    def gradients(self) -> dict[str, np.ndarray]:
        out = {}
        for i, layer in enumerate(self.layers):
            for name, g in layer.grads().items():
                if g is None:
                    raise InternalError(
                        f"gradient for {i}:{layer.label}.{name} not computed")
                out[f"{i}:{layer.label}.{name}"] = g
        return out

    def get_state(self) -> dict[str, np.ndarray]:
        """Copies of all trainable parameters plus running statistics."""
        state = {name: p.copy() for name, p in self.parameters().items()}
        for i, layer in enumerate(self.layers):
            if isinstance(layer, BatchNorm):
                state[f"{i}:{layer.label}.running_mean"] = layer.running_mean.copy()
                state[f"{i}:{layer.label}.running_std"] = layer.running_std.copy()
                state[f"{i}:{layer.label}.updates"] = np.array(layer.updates)
        return state

    def set_state(self, state: dict[str, np.ndarray]) -> None:
        """Restore a snapshot; it must hold exactly this network's entries."""
        expected = self.get_state()
        missing = [name for name in expected if name not in state]
        unknown = [name for name in state if name not in expected]
        if missing or unknown:
            raise InternalError(
                f"state does not match the network: missing "
                f"[{', '.join(missing)}], unknown [{', '.join(unknown)}]")
        params = self.parameters()
        for name, value in state.items():
            if np.shape(value) != expected[name].shape:
                raise InternalError(f"state shape mismatch for {name}: "
                                    f"{expected[name].shape} vs {np.shape(value)}")
            if name in params:
                params[name][...] = value
            else:  # a batch-norm running statistic or update count
                layer = self.layers[int(name.split(":", 1)[0])]
                attr = name.rsplit(".", 1)[1]
                setattr(layer, attr, int(value) if attr == "updates"
                        else np.array(value, dtype=float))
