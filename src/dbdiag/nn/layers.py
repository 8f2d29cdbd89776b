"""Layers for the reconstruction network.

Each layer computes in the dtype of its input and never promotes it: it
casts its float64 parameters and running statistics to that dtype, so its
output and its input gradient share it. Training and scoring feed float32
(``GlobalNorm.apply`` returns it); gradient checks feed float64. The
parameters, their gradients, their optimizer state and the running statistics
stay float64 whatever the input. Each trainable parameter named in ``PARAMS``
has a float64 gradient ``d_<name>`` of its shape, NaN until a backward pass
writes it in place with ``np.copyto``, which upcasts a float32 gradient
exactly. In a ``Network`` each parameter and its gradient are views into its
two flat vectors, and the optimizer writes the parameters through
``Network.values``. Each layer caches whatever its backward pass needs during
a ``forward(..., training=True)`` call, and no more: ``ReLU`` keeps its
output, which the next layer holds anyway, and the temporal-norm reverse
keeps its input, not its scaled input. No layer writes any state in a
``training=False`` forward pass (batch-stat layers read their running
statistics, and the temporal-norm pair hands its moments over as values), so
inference is safe to run concurrently on a shared model. Layers update in
place only arrays they allocated in the same call and their gradients, never
their inputs, the upstream gradient or anything they cached. The one exception
is the running statistics: a training forward pass of ``BatchNorm`` updates
``running_mean``, ``running_std`` and ``updates`` in place. A layer names its
parameters in ``PARAMS`` and such in-place arrays in ``BUFFERS``; together
they are the arrays a ``Network`` holds by name. The optimizer and
``Network.set_state`` write them in place too, so a snapshot must copy them,
as ``Network.get_state`` does.

The temporal norm and batch norm share one standardization, ``Standardize``;
batch norm runs it on the batch viewed as one window, so its moments pool
batch and time steps. It and the reverse layer expand the per-feature
``gamma``/``beta`` to a [T, F] block and the per-window moments to contiguous
[batch, T, F] arrays before combining them with an activation. Broadcasting a
[F] or [batch, 1, F] operand instead makes NumPy's inner loop run over only F
elements per step, which costs about three times a same-shape operation. Each
element still goes through the same float operations in the same order, so the
results are bit-identical. Forward passes build each expanded moment in a
buffer that becomes a result or takes memory an inference pass has freed, so
scoring holds no more [batch, T, F] arrays at once than broadcasting does. The
reverse layer's backward holds one more for the length of the call, below the
peak of a training step.

A window's temporal standardization depends on the window alone, so a fit
computes it once for every training window, as a ``Standardized`` set, and
hands the first ``TemporalNorm`` the rows of each batch; the layer then runs
only its scale-shift, with the bits it would give the raw batch.

In a network whose lead is exactly one temporal norm, training folds the
pair's per-feature scale-shift into the dense layers beside it, which
``Network`` names in ``Dense.fold_in`` and ``Dense.fold_out``. The temporal
norm's training forward then returns the standardized windows, the first
dense layer multiplies them by ``diag(gamma) W`` and adds ``b + beta W``, the
output layer's weights and bias carry the reverse layer's ``gamma`` and
``beta``, and the reverse layer only restores each window's moments. Each
folding dense layer maps its gradients back to those of the stored
parameters and sets the pair layer's ``d_gamma`` and ``d_beta``: the one
place a layer writes another layer's gradients. Inference runs every layer
unfolded.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..errors import ConfigError, InternalError


class Layer:
    """Base layer: parameter-free pass-through."""

    label = "layer"
    # the trainable parameters' attribute names; each has a d_<name> gradient
    PARAMS: tuple[str, ...] = ()
    # the other arrays a snapshot restores, each updated in place
    BUFFERS: tuple[str, ...] = ()

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class Dense(Layer):
    """Affine map ``x @ W + b`` on the last axis.

    ``label`` only names the layer's role in the encoder/decoder mirror
    (``dense``, ``dense_reverse`` or ``dense_out``); the computation is
    identical.

    ``fold_in`` and ``fold_out`` name a temporal-norm pair layer whose
    per-feature scale-shift a training pass folds into this layer's input or
    output side (``Network`` sets them; see there). A training forward then
    multiplies by the folded weights, computed in float64 from the stored
    parameters and cast once to the input's dtype, and the backward pass maps
    the gradients of the folded weights back, in float64, to those of the
    stored weights and bias and of the pair layer's ``gamma`` and ``beta``. A
    layer with ``fold_in`` takes ``(grad, input_grad)`` in its backward pass
    and returns None when ``input_grad`` is False, without the input-gradient
    product. Inference always uses the stored weights.
    """

    PARAMS = ("weights", "bias")

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator,
                 label: str = "dense"):
        if n_in <= 0 or n_out <= 0:
            raise ConfigError(f"dense layer sizes must be positive, got {n_in}x{n_out}")
        limit = np.sqrt(6.0 / (n_in + n_out))
        self.weights = rng.uniform(-limit, limit, size=(n_in, n_out))
        self.bias = np.zeros(n_out)
        self.label = label
        self.fold_in: ScaleShift | None = None
        self.fold_out: ScaleShift | None = None
        self._x = None
        self._w = None
        self.d_weights = np.full_like(self.weights, np.nan)
        self.d_bias = np.full_like(self.bias, np.nan)

    @property
    def n_in(self) -> int:
        return self.weights.shape[0]

    @property
    def n_out(self) -> int:
        return self.weights.shape[1]

    def forward(self, x, training=False):
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise ConfigError(
                f"dense layer expects input width {self.n_in}, got shape {x.shape}")
        if training and (self.fold_in is not None or self.fold_out is not None):
            weights, bias = (part.astype(x.dtype, copy=False) for part in self._folded())
        else:
            weights = self.weights.astype(x.dtype, copy=False)
            bias = self.bias.astype(x.dtype, copy=False)
        if training:
            self._x, self._w = x, weights
        out = x @ weights
        out += bias
        return out

    def backward(self, grad):
        input_grad = True
        if self.fold_in is not None:
            grad, input_grad = grad
        if self._x is None:
            raise InternalError("dense backward called before a training forward pass")
        np.copyto(self.d_weights, self._x.T @ grad)
        np.copyto(self.d_bias, grad.sum(axis=0))
        if self.fold_in is not None:
            self._unfold_in()
        if self.fold_out is not None:
            self._unfold_out()
        return grad @ self._w.T if input_grad else None

    def _folded(self) -> tuple[np.ndarray, np.ndarray]:
        """The float64 weights and bias of a folded training pass:
        ``diag(gamma) W`` and ``b + beta W`` for ``fold_in``, ``W diag(gamma)``
        and ``gamma * b + beta`` for ``fold_out``, each pair layer's
        ``gamma`` and ``beta`` tiled over the flat window's time steps."""
        weights, bias = self.weights, self.bias
        if self.fold_in is not None:
            gamma, beta = self.fold_in.tiled(self.n_in)
            bias = bias + beta @ weights
            weights = gamma[:, None] * weights
        if self.fold_out is not None:
            gamma, beta = self.fold_out.tiled(self.n_out)
            weights = weights * gamma
            bias = gamma * bias + beta
        return weights, bias

    def _unfold_in(self) -> None:
        """Turn ``d_weights``/``d_bias``, the gradients of the folded
        ``fold_in`` weights and bias, into those of the stored ones, and set
        the pair layer's ``d_gamma``/``d_beta``. Each is computed in float64
        and rounded once to the dtype of the pass, as the other layers'
        gradients are computed in it."""
        pair, dtype = self.fold_in, self._x.dtype
        gamma, beta = pair.tiled(self.n_in)
        d_weights, d_bias = self.d_weights, self.d_bias
        np.copyto(pair.d_gamma, pair.over_steps(
            np.einsum("ij,ij->i", self.weights, d_weights)).astype(dtype))
        np.copyto(pair.d_beta, pair.over_steps(self.weights @ d_bias).astype(dtype))
        np.copyto(d_weights, (gamma[:, None] * d_weights
                              + np.outer(beta, d_bias)).astype(dtype))

    def _unfold_out(self) -> None:
        """As ``_unfold_in``, for the ``fold_out`` weights and bias."""
        pair, dtype = self.fold_out, self._x.dtype
        gamma, _ = pair.tiled(self.n_out)
        d_weights, d_bias = self.d_weights, self.d_bias
        np.copyto(pair.d_gamma, pair.over_steps(
            np.einsum("ij,ij->j", self.weights, d_weights)
            + self.bias * d_bias).astype(dtype))
        np.copyto(pair.d_beta, pair.over_steps(d_bias).astype(dtype))
        np.copyto(d_weights, (d_weights * gamma).astype(dtype))
        np.copyto(d_bias, (d_bias * gamma).astype(dtype))


class ReLU(Layer):
    """``max(x, 0)``. A training pass caches its output, which the next layer
    holds as its input anyway, and the backward pass masks the gradient with
    ``out > 0``, the same mask as ``x > 0``."""

    label = "relu"

    def __init__(self):
        self._out = None

    def forward(self, x, training=False):
        out = np.maximum(x, 0.0)
        if training:
            self._out = out
        return out

    def backward(self, grad):
        if self._out is None:
            raise InternalError("relu backward called before a training forward pass")
        return grad * (self._out > 0)


class Reshape(Layer):
    """[batch, *in_shape] -> [batch, *out_shape]; a [batch, T, F] window
    flattens in row-major (time-major) order."""

    label = "reshape"

    def __init__(self, in_shape: tuple[int, ...], out_shape: tuple[int, ...]):
        self.in_shape = tuple(in_shape)
        self.out_shape = tuple(out_shape)

    def forward(self, x, training=False):
        if x.shape[1:] != self.in_shape:
            raise ConfigError(f"reshape expects {self.in_shape} after the batch axis, "
                              f"got {x.shape}")
        return x.reshape(x.shape[0], *self.out_shape)

    def backward(self, grad):
        # None: the layer below needs no input gradient
        return None if grad is None else grad.reshape(grad.shape[0], *self.in_shape)


def _sum(out, *operands):
    """Sum a [batch, T, F] array, or the elementwise product of two, over time
    (``out="bf"``, returned as [batch, 1, F]) or over batch and time
    (``out="f"``).

    ``einsum`` adds the terms in the same order as numpy's ``sum`` when F > 1,
    and is several times faster. With one feature numpy reduces along the
    contiguous time axis pairwise, so that case keeps ``sum`` and its bits.
    """
    if operands[0].shape[2] == 1:
        terms = operands[0] if len(operands) == 1 else operands[0] * operands[1]
        total = terms.sum(axis=1 if out == "bf" else (0, 1))
    else:
        total = np.einsum(",".join(["btf"] * len(operands)) + "->" + out, *operands)
    return total[:, None, :] if out == "bf" else total


def _moment_backward(grad, gamma, norm, denom, std, d_mean, d_std):
    """Input gradient of z-normalization over axis 1 given the upstream grad
    wrt the scaled output ``gamma * norm + beta`` plus any external grads wrt
    the moments, for [batch, T, F] arrays.

    ``denom = std + eps`` divides the centered values; each (mean, std) pair
    was computed over the ``norm.shape[1]`` steps of its window. The std path
    is zero where std == 0 (constant slices normalize to an exact constant,
    so the one-sided derivative drops that term's factor). Training never
    reaches it through a temporal norm, which is always the first layer.
    """
    count = norm.shape[1]
    d_norm = grad * gamma
    d_mean = d_mean - _sum("bf", d_norm) / denom
    d_std = d_std - _sum("bf", d_norm, norm) / denom
    positive = std > 0.0
    dstd_dx = norm * denom
    dstd_dx /= count * np.where(positive, std, 1.0)
    if not positive.all():
        np.copyto(dstd_dx, 0.0, where=~positive)
    dstd_dx *= d_std
    d_norm /= denom
    d_norm += d_mean / count
    d_norm += dstd_dx
    return d_norm


def _standardize(x, epsilon):
    """``(norm, mean, std, denom, spare)``: the z-normalization of a
    [batch, T, F] array along its time axis, each moment [batch, 1, F].
    ``spare`` is a new [batch, T, F] array, ``denom`` expanded, that the
    caller may overwrite."""
    steps = x.shape[1]
    mean = _sum("bf", x) / steps
    norm = np.repeat(mean, steps, axis=1)
    np.subtract(x, norm, out=norm)
    std = np.sqrt(_sum("bf", norm, norm) / steps)
    denom = std + epsilon
    wide = np.repeat(denom, steps, axis=1)
    norm /= wide
    return norm, mean, std, denom, wide


class ScaleShift(Layer):
    """A layer with a trainable per-feature scale ``gamma`` and shift ``beta``.

    ``folded`` is set on a temporal-norm pair whose scale-shift the
    neighbouring dense layer applies in training (see ``Dense``): the
    layer's training passes then leave it out, and the dense layer sets
    ``d_gamma`` and ``d_beta``.
    """

    PARAMS = ("gamma", "beta")

    def __init__(self, width: int):
        self.gamma = np.ones(width)
        self.beta = np.zeros(width)
        self.folded = False
        self._cache = None
        self.d_gamma = np.full_like(self.gamma, np.nan)
        self.d_beta = np.full_like(self.beta, np.nan)

    def scale_shift(self, dtype, steps: int) -> tuple[np.ndarray, np.ndarray]:
        """``gamma`` and ``beta`` in the dtype the layer computes in, tiled to
        [steps, F] blocks: a [batch, steps, F] activation times one runs an
        inner loop of steps * F contiguous elements per window, not one of F
        per step, with the same products. ``steps=1`` gives [1, F], which
        broadcasts as [F] does."""
        return (np.tile(self.gamma.astype(dtype, copy=False), (steps, 1)),
                np.tile(self.beta.astype(dtype, copy=False), (steps, 1)))

    def tiled(self, width: int) -> tuple[np.ndarray, np.ndarray]:
        """float64 ``gamma`` and ``beta`` tiled to the ``width`` entries of a
        flat [T * F] window, time-major as ``Reshape`` flattens it."""
        steps = width // self.gamma.shape[0]
        return tuple(part.ravel() for part in self.scale_shift(np.float64, steps))

    def over_steps(self, flat: np.ndarray) -> np.ndarray:
        """A flat [T * F] window's entries summed over its time steps, [F]."""
        return flat.reshape(-1, self.gamma.shape[0]).sum(axis=0)


class Standardize(ScaleShift):
    """z-normalization of [batch, T, F] input along its time axis, then the
    scale-shift. The std is the population one plus ``EPSILON`` (added to the
    std, not the variance), so constant series map to 0 instead of failing."""

    EPSILON = 1e-5

    def standardize(self, x, training):
        """``(out, mean, std, denom)``, each moment [batch, 1, F]."""
        norm, mean, std, denom, spare = _standardize(x, self.EPSILON)
        return self.shift_norm(norm, std, denom, training, spare), mean, std, denom

    def shift_norm(self, norm, std, denom, training, out=None):
        """``gamma * norm + beta``, written into ``out`` when given; a
        training pass caches ``norm`` and the moments for the backward pass."""
        if training:
            self._cache = (norm, std, denom)
        gamma, beta = self.scale_shift(norm.dtype, norm.shape[1])
        out = np.multiply(gamma, norm, out=out)
        out += beta
        return out

    def standardize_backward(self, grad, d_moments):
        """Sets ``d_gamma``/``d_beta``; returns the input gradient given
        ``d_moments``, the grads wrt (mean, std), or None when it is None.
        A folded layer's ``grad`` is the gradient wrt ``norm`` itself, or
        None when ``d_moments`` is None, and it sets no parameter gradient."""
        if self._cache is None:
            raise InternalError(f"{type(self).__name__} backward called before a "
                                f"training forward pass")
        norm, std, denom = self._cache
        if not self.folded:
            np.copyto(self.d_gamma, _sum("f", grad, norm))
            np.copyto(self.d_beta, _sum("f", grad))
        if d_moments is None:
            return None
        gamma = 1.0 if self.folded else self.gamma.astype(grad.dtype, copy=False)
        return _moment_backward(grad, gamma, norm, denom, std, *d_moments)


class TemporalNorm(Standardize):
    """Normalizes each (sample, feature) series along its own time axis.

    Every window leaves the layer with per-feature mean 0 and standard
    deviation ~1 regardless of where in the original series it was cut,
    which is what lets one model handle level shifts and trends.

    ``forward`` takes a [batch, T, F] array, or a ``Standardized`` batch,
    whose windows are normalized already, so only the scale-shift runs; a
    folded layer's training pass returns the normalized windows without it.
    It returns ``(out, (mean, denom))``: the per-sample moments, each
    [batch, 1, F], go to the paired ``TemporalNormReverse`` at the decoder
    end. ``backward`` takes ``(grad, handed)``: the upstream grad plus what
    the reverse layer handed back, its own upstream grad and ``scaled``,
    from which it reduces the gradients wrt the moments. It always sets
    ``d_gamma``/``d_beta``, unless folded; with ``handed`` None it stops
    there and returns None instead of the input gradient.
    """

    label = "btn"

    def forward(self, x, training=False):
        ready = isinstance(x, Standardized)
        shape = x.shape
        if len(shape) != 3 or shape[2] != self.gamma.shape[0]:
            raise ConfigError(
                f"temporal norm expects [batch, T, {self.gamma.shape[0]}], got {shape}")
        if shape[1] < 2:
            raise ConfigError("temporal norm needs at least 2 time steps per window")
        if training and self.folded:
            norm, mean, std, denom = x if ready else _standardize(x, self.EPSILON)[:4]
            self._cache = (norm, std, denom)
            return norm, (mean, denom)
        if ready:
            return self.shift_norm(x.norm, x.std, x.denom, training), (x.mean, x.denom)
        out, mean, _, denom = self.standardize(x, training)
        return out, (mean, denom)

    def backward(self, grad):
        grad, handed = grad
        d_moments = None
        if handed is not None:
            out_grad, scaled = handed
            d_moments = (_sum("bf", out_grad), _sum("bf", out_grad, scaled))
        return self.standardize_backward(grad, d_moments)


class Standardized(NamedTuple):
    """Windows z-normalized along their time axis ahead of a training pass,
    with the bits ``Standardize.standardize`` gives them in any batch:
    ``norm`` [n, T, F] and the moments ``mean``, ``std`` and ``denom``, each
    [n, 1, F]. A ``TemporalNorm`` takes one in place of the raw windows."""

    norm: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    denom: np.ndarray

    @classmethod
    def of(cls, windows: np.ndarray, chunk: int) -> "Standardized":
        """Standardize [n, T, F] ``windows``, ``chunk`` at a time, into
        arrays of their dtype allocated once. A window's values depend on it
        alone, so each row has the bits it would have in any batch."""
        n, _, width = windows.shape
        out = cls(np.empty(windows.shape, windows.dtype),
                  *(np.empty((n, 1, width), windows.dtype) for _ in range(3)))
        for start in range(0, n, chunk):
            rows = slice(start, start + chunk)
            # contiguous, as a gathered batch is; the windows may be a view
            part = np.ascontiguousarray(windows[rows])
            for array, value in zip(out, _standardize(part, Standardize.EPSILON)):
                array[rows] = value
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        """The windows' shape, [n, T, F], as a raw batch has it."""
        return self.norm.shape

    def take(self, rows) -> "Standardized":
        """The windows at ``rows``, an index array, as a new batch."""
        return Standardized(*(array[rows] for array in self))


class TemporalNormReverse(ScaleShift):
    """Decoder end of a temporal-norm pair.

    Applies its own trainable scale/offset, ``scaled = gamma * x + beta``,
    then restores each sample's original per-feature level and spread.
    ``forward`` takes ``(x, (mean, denom))``, the moments its paired
    ``TemporalNorm`` returned in the same pass. ``backward`` takes
    ``(grad, hand)`` and returns ``(dx, handed)``. The gradients wrt
    ``mean`` and ``denom`` are the sums over time of ``grad`` and
    ``grad * scaled``, and only the paired layer's input gradient reads
    them, so with ``hand`` true the layer hands ``(grad, scaled)`` over
    unreduced and the paired layer reduces them; with ``hand`` false
    ``handed`` is None. A training pass caches ``x``, not ``scaled``: the
    backward pass computes ``scaled`` again, with the forward pass's
    operations, only when it hands it over. Neither handed array is written
    after it is handed over. A folded layer's training input is ``scaled``
    already, so its passes only restore the moments.
    """

    label = "btn_reverse"

    def forward(self, x, training=False):
        x, (mean, denom) = x
        steps = x.shape[1]
        wide = np.repeat(denom, steps, axis=1)
        if training and self.folded:
            out = np.multiply(x, wide, out=wide)
        else:
            gamma, beta = self.scale_shift(x.dtype, steps)
            out = gamma * x
            out += beta
            out *= wide
        if training:
            self._cache = (x, denom)
        # the expanded mean can take the expanded denom's memory
        del wide
        out += np.repeat(mean, steps, axis=1)
        return out

    def backward(self, grad):
        grad, hand = grad
        if self._cache is None:
            raise InternalError("temporal-norm reverse backward called before a "
                                "training forward pass")
        x, denom = self._cache
        steps = x.shape[1]
        wide = np.repeat(denom, steps, axis=1)
        if self.folded:
            wide *= grad
            return wide, ((grad, x) if hand else None)
        work = grad * x
        work *= wide
        np.copyto(self.d_gamma, _sum("f", work))
        gamma, beta = self.scale_shift(grad.dtype, steps)
        np.multiply(grad, gamma, out=work)
        work *= wide
        wide *= grad
        np.copyto(self.d_beta, _sum("f", wide))
        if not hand:
            return work, None
        scaled = gamma * x
        scaled += beta
        return work, (grad, scaled)


class BatchNorm(Standardize):
    """Batch normalization over every axis except the last (feature) axis.

    On [batch, T, F] input the moments pool batches and time steps together;
    on flat [batch, D] activations they pool the batch. A training pass runs
    ``Standardize`` on the input viewed as one [1, batch * T, F] window, so
    the moments and gradients are the temporal norm's and equal those of
    ``x.mean``, ``x.std`` and ``sum`` bit for bit. Training mode uses batch
    statistics and updates the running stats in place with an exponential
    moving average; inference uses the running stats and refuses to run
    before the first training update. ``label`` is ``bn_reverse`` for the
    decoder-side mirror of a ``bn``; the computation is identical.
    """

    MOMENTUM = 0.1
    BUFFERS = ("running_mean", "running_std", "updates")

    def __init__(self, width: int, label: str = "bn"):
        super().__init__(width)
        self.running_mean = np.zeros(width)
        self.running_std = np.ones(width)
        self.updates = np.array(0)
        self.label = label

    @property
    def width(self) -> int:
        return self.gamma.shape[0]

    def forward(self, x, training=False):
        if x.ndim not in (2, 3) or x.shape[-1] != self.width:
            raise ConfigError(
                f"batch norm expects [batch, {self.width}] or [batch, T, {self.width}], "
                f"got {x.shape}")
        if training:
            out, mean, std, _ = self.standardize(x.reshape(1, -1, self.width), training)
            for running, moment in ((self.running_mean, mean), (self.running_std, std)):
                running *= 1.0 - self.MOMENTUM
                running += self.MOMENTUM * moment[0, 0]
            self.updates += 1
            return out.reshape(x.shape)
        if self.updates == 0:
            raise ConfigError("batch norm has no running statistics yet; "
                              "train before running inference")
        mean = self.running_mean.astype(x.dtype, copy=False)
        denom = self.running_std.astype(x.dtype, copy=False) + self.EPSILON
        gamma, beta = self.scale_shift(x.dtype, 1)
        return gamma * ((x - mean) / denom) + beta

    def backward(self, grad):
        flat = grad.reshape(1, -1, self.width)
        return self.standardize_backward(flat, (0.0, 0.0)).reshape(grad.shape)
