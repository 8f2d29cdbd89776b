"""Architecture strings and their compilation into layer stacks.

An architecture is written as dash-separated tokens, e.g.
``BTN-(150)-(50)-(150*)-BTN*``. Token kinds:

* ``(n)``   dense layer with n units followed by ReLU
* ``BN``    batch normalization over the batch (and time, when placed on the
            raw window boundary)
* ``BTN``   per-window temporal normalization along the time axis

A trailing ``*`` (written inside the parentheses for dense tokens, ``(150*)``)
marks the decoder counterpart of an encoder token. The starred tokens must
mirror the unstarred prefix: reading the starred suffix backwards must
reproduce the encoder tokens kind-for-kind and size-for-size, except that the
innermost (bottleneck) token may stand alone, and only if it is dense. At
least one encoder token is dense, and ``BTN`` may only be the first token, so
by the mirror rule ``BTN*`` can only be the last.

Every valid string thus splits into a lead, a body and a trail. The lead is
the unstarred normalizations before the first dense token; they run on the
[batch, T, F] window. The body runs from the first through the last dense
token on the flattened window, with any ``BN`` between on the flat width. A
final linear dense layer that maps back to the window size is implicit; it
follows the body, and the trail, the starred normalizations after the last
dense token, runs on the [batch, T, F] window again.

Two fixed-form baselines are also accepted: ``PCA-network (n)`` is a linear
bottleneck (dense n, no ReLU) plus the implicit linear output, and
``PCA-network (n) with BTN`` wraps that in a temporal-norm pair.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ArchitectureError
from .nn import (
    BatchNorm,
    Dense,
    Network,
    ReLU,
    Reshape,
    TemporalNorm,
    TemporalNormReverse,
)

_PCA_RE = re.compile(r"^PCA-network \((\d+)\)( with BTN)?$")
_DENSE_RE = re.compile(r"^\((\d+)(\*?)\)(\*?)$")


@dataclass(frozen=True)
class Token:
    kind: str        # "dense" | "bn" | "btn"
    units: int = 0   # dense only
    starred: bool = False

    def __str__(self) -> str:
        if self.kind == "dense":
            return f"({self.units}{'*' if self.starred else ''})"
        name = self.kind.upper()
        return name + ("*" if self.starred else "")


@dataclass(frozen=True)
class ArchitectureSpec:
    text: str
    tokens: tuple[Token, ...]
    linear_dense: bool = False  # PCA baselines: dense layers without ReLU

    def __post_init__(self):
        _validate(self.tokens)


def _parse_token(raw: str, position: int) -> Token:
    m = _DENSE_RE.match(raw)
    if m:
        units = int(m.group(1))
        if units <= 0:
            raise ArchitectureError(f"dense layer needs at least 1 unit, got {raw!r}",
                                    position=position)
        if m.group(2) and m.group(3):
            raise ArchitectureError(f"doubly starred token {raw!r}", position=position)
        return Token("dense", units, bool(m.group(2) or m.group(3)))
    base = raw
    starred = False
    if base.endswith("*"):
        base = base[:-1]
        starred = True
    if base == "BN":
        return Token("bn", 0, starred)
    if base == "BTN":
        return Token("btn", 0, starred)
    raise ArchitectureError(f"unrecognized token {raw!r}", position=position)


def parse_architecture(text: str) -> ArchitectureSpec:
    """Parse and validate an architecture string.

    Raises ArchitectureError with the offending token position (1-based) when
    the string is malformed or the starred suffix fails to mirror the encoder.
    """
    if not isinstance(text, str) or not text.strip():
        raise ArchitectureError("architecture string is empty")
    text = text.strip()

    m = _PCA_RE.match(text)
    if m:
        units = int(m.group(1))
        if units <= 0:
            raise ArchitectureError(f"PCA-network needs at least 1 unit, got {units}")
        if m.group(2):
            tokens = (Token("btn"), Token("dense", units), Token("btn", 0, True))
        else:
            tokens = (Token("dense", units),)
        return ArchitectureSpec(text, tokens, linear_dense=True)
    if text.startswith("PCA-network"):
        raise ArchitectureError(
            f"malformed PCA-network form {text!r}; expected "
            f"'PCA-network (n)' or 'PCA-network (n) with BTN'")

    tokens = tuple(_parse_token(raw, i + 1) for i, raw in enumerate(text.split("-")))
    return ArchitectureSpec(text, tokens)


def _validate(tokens: tuple[Token, ...]) -> None:
    split = len(tokens)
    for i, tok in enumerate(tokens):
        if tok.starred:
            split = i
            break
    encoder, decoder = tokens[:split], tokens[split:]
    for i, tok in enumerate(decoder):
        if not tok.starred:
            raise ArchitectureError(
                f"unstarred token {tok} after the first starred token",
                position=split + i + 1)
    if not any(t.kind == "dense" for t in encoder):
        raise ArchitectureError("architecture needs at least one dense encoder layer")

    # The starred suffix, read backwards, must match the encoder tail.
    # Whatever encoder tokens remain unmatched form the bottleneck and must
    # all be dense (a normalization layer without its reversal has no
    # counterpart to restore scale from).
    mirrored = [Token(t.kind, t.units) for t in reversed(decoder)]
    if len(mirrored) > len(encoder):
        raise ArchitectureError(
            f"more starred tokens ({len(decoder)}) than encoder tokens "
            f"({len(encoder)}) to mirror")
    tail = list(encoder[:len(mirrored)])
    if mirrored != tail:
        want = "-".join(str(t) for t in tail)
        got = "-".join(str(Token(t.kind, t.units)) for t in reversed(decoder))
        raise ArchitectureError(
            f"starred suffix reversed is {got!r} but the encoder starts with {want!r}")
    for i, tok in enumerate(encoder[len(mirrored):]):
        if tok.kind != "dense":
            raise ArchitectureError(
                f"normalization token {tok} has no starred counterpart",
                position=len(mirrored) + i + 1)

    for i, tok in enumerate(tokens):
        if tok.kind == "btn" and not tok.starred and i != 0:
            raise ArchitectureError(
                "temporal normalization must be the first token", position=i + 1)


def build_network(spec: ArchitectureSpec, window_steps: int, n_features: int,
                  rng: np.random.Generator) -> Network:
    """Compile a parsed architecture into a concrete layer stack.

    The stack runs on [batch, window_steps, n_features] arrays: the lead's
    normalizations, a Reshape to the flat window, the body, the implicit
    output layer, a Reshape back and the trail's normalizations.
    """
    if window_steps < 2:
        raise ArchitectureError("window must span at least 2 time steps")
    if n_features < 1:
        raise ArchitectureError("need at least one feature")

    flat_width = window_steps * n_features
    window, flat = (window_steps, n_features), (flat_width,)
    dense = [i for i, tok in enumerate(spec.tokens) if tok.kind == "dense"]
    first, last = dense[0], dense[-1]
    layers = [TemporalNorm(n_features) if tok.kind == "btn"
              else BatchNorm(n_features, label="bn") for tok in spec.tokens[:first]]
    layers.append(Reshape(window, flat))
    width = flat_width
    for tok in spec.tokens[first:last + 1]:
        if tok.kind == "dense":
            layers.append(Dense(width, tok.units, rng,
                                label="dense_reverse" if tok.starred else "dense"))
            width = tok.units
            if not spec.linear_dense:
                layers.append(ReLU())
        else:
            layers.append(BatchNorm(width, label="bn_reverse" if tok.starred else "bn"))
    layers.append(Dense(width, flat_width, rng, label="dense_out"))
    layers.append(Reshape(flat, window))
    layers += [TemporalNormReverse(n_features) if tok.kind == "btn"
               else BatchNorm(n_features, label="bn_reverse")
               for tok in spec.tokens[last + 1:]]
    return Network(layers, spec.text)
