"""Layer stack that owns the flat parameter layout and state snapshots."""

from __future__ import annotations

import numpy as np

from ..errors import InternalError
from .layers import Dense, Layer, Standardized, TemporalNorm, TemporalNormReverse


class Network:
    """An ordered stack of layers run as one model.

    The network owns the parameter layout. Every trainable parameter and its
    ``d_<name>`` gradient are views into two flat float64 vectors, ``values``
    and ``grads``, so an optimizer updates all of them as one vector. The
    weights of every dense layer come first, in layer order, so the L2
    penalty reads and updates them as the one slice ``decayed``; the other
    parameters follow in layer order. ``layout`` maps each parameter's name,
    ``"<index>:<label>.<name>"``, to its slice, in that order. ``grads`` is
    NaN until a backward pass writes it. One table holds, under the same
    names and in layer order, each layer's ``PARAMS`` and its ``BUFFERS``
    (the batch-norm running stats): ``parameters()`` reads its parameters,
    and snapshots hold all of it, so a restored network scores identically.
    """

    def __init__(self, layers: list[Layer], arch_text: str):
        self.layers = layers
        self.arch_text = arch_text
        self._forward_was_training = False
        entries = [(f"{i}:{layer.label}.{name}", layer, name)
                   for i, layer in enumerate(layers)
                   for name in layer.PARAMS + layer.BUFFERS]
        # dense weights first; the sort is stable, so each group keeps layer order
        params = sorted((entry for entry in entries if entry[2] in entry[1].PARAMS),
                        key=lambda entry: not (isinstance(entry[1], Dense)
                                               and entry[2] == "weights"))
        size = sum(getattr(layer, name).size for _, layer, name in params)
        self.values = np.empty(size)
        self.grads = np.full(size, np.nan)
        self.layout: dict[str, slice] = {}
        offset = 0
        for key, layer, name in params:
            param = getattr(layer, name)
            part = self.layout[key] = slice(offset, offset + param.size)
            self.values[part] = param.ravel()
            setattr(layer, name, self.values[part].reshape(param.shape))
            setattr(layer, f"d_{name}", self.grads[part].reshape(param.shape))
            offset = part.stop
        self._arrays = {key: getattr(layer, name) for key, layer, name in entries}
        self.decayed = slice(0, sum(layer.weights.size for layer in layers
                                    if isinstance(layer, Dense)))

    def forward(self, x: np.ndarray | Standardized, training: bool = False) -> np.ndarray:
        # The grammar allows one temporal-norm pair, as the first and last
        # layers: the TemporalNorm hands its moments to the reverse. Only a
        # first TemporalNorm takes a Standardized batch.
        out = x
        for layer in self.layers:
            if isinstance(layer, TemporalNormReverse):
                out = (out, moments)
            out = layer.forward(out, training=training)
            if isinstance(layer, TemporalNorm):
                out, moments = out
        self._forward_was_training = training
        return out

    def backward(self, grad: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Set every layer's parameter gradients from the gradient wrt the
        output; returns the gradient wrt the input, or None when
        ``input_grad`` is False, in which case the temporal-norm pair skips
        its moment and input gradients. The parameter gradients are
        bit-identical either way.
        """
        if not self._forward_was_training:
            raise InternalError("backward requires a preceding training-mode forward pass")
        out = grad
        for layer in reversed(self.layers):
            if isinstance(layer, TemporalNormReverse):
                out, handed = layer.backward((out, input_grad))
            elif isinstance(layer, TemporalNorm):
                out = layer.backward((out, handed))
            else:
                out = layer.backward(out)
        return out if input_grad else None

    def parameters(self) -> dict[str, np.ndarray]:
        """Every trainable parameter by name, as a live view into ``values``."""
        return {name: value for name, value in self._arrays.items()
                if name in self.layout}

    def get_state(self) -> dict[str, np.ndarray]:
        """Copies of all trainable parameters plus running statistics."""
        return {name: value.copy() for name, value in self._arrays.items()}

    def set_state(self, state: dict[str, np.ndarray]) -> None:
        """Restore a snapshot; it must hold exactly this network's entries.
        ``copyto`` casts only within a kind, so a float cannot restore an
        integer entry such as an update count."""
        missing = [name for name in self._arrays if name not in state]
        unknown = [name for name in state if name not in self._arrays]
        if missing or unknown:
            raise InternalError(
                f"state does not match the network: missing "
                f"[{', '.join(missing)}], unknown [{', '.join(unknown)}]")
        for name, value in state.items():
            if np.shape(value) != self._arrays[name].shape:
                raise InternalError(f"state shape mismatch for {name}: "
                                    f"{self._arrays[name].shape} vs {np.shape(value)}")
            np.copyto(self._arrays[name], value)
