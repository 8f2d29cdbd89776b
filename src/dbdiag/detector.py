"""Reconstruction-error anomaly scoring.

A Detector wraps a trained reconstruction network together with the
normalization and windowing settings it was trained under, so scoring new
data is a single call that cannot drift from the training-time pipeline.
Training minimizes the sum of squared reconstruction errors per window
(averaged over the batch) plus an L2 penalty on dense weights; all reported
quality numbers are per-element mean squared errors so models of different
window sizes stay comparable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from .architecture import build_network, parse_architecture
from .data import (
    DEFAULT_WINDOW_STEPS,
    GlobalNorm,
    MetricFrame,
    WindowSet,
    check_split,
    decode_array,
    encode_array,
    json_checksum,
    make_windows,
    minutes_to_iso,
    not_xml_name,
    read_json,
    split_windows,
    stamps_to_minutes,
    write_json,
    write_minute_csv,
)
from .errors import ConfigError, DataError, InternalError, ModelIOError, TrainingError
from .nn import Adam, Network, squared_error
from .nn.layers import _sum

MODEL_FORMAT = "dbdiag-model"
MODEL_FORMAT_VERSION = 2
SCORES_FORMAT = "dbdiag-scores"
SCORES_FORMAT_VERSION = 1
SELECTED_ARCHITECTURE = "BTN-(150)-(50)-(150*)-BTN*"

# The architecture families compared by run_ablation: PCA baselines, the
# plain and batch-normalized autoencoders, temporal normalization at both
# depths, and the mixed forms.
TABLE_ARCHITECTURES = (
    "PCA-network (50)",
    "PCA-network (50) with BTN",
    "(150)-(50)-(150*)",
    "(150)-BN-(50)-BN*-(150*)",
    "BN-(150)-(50)-(150*)-BN*",
    "BTN-(150)-(50)-(150*)-BTN*",
    "BTN-(150)-BN-(50)-BN*-(150*)-BTN*",
    "BN-(500)-(300)-(150)-(300*)-(500*)-BN*",
    "BTN-(500)-(300)-(150)-(300*)-(500*)-BTN*",
    "BTN-(500)-BN-(300)-(150)-(300*)-BN*-(500*)-BTN*",
)

_SCORE_CHUNK = 1024


@dataclass
class TrainConfig:
    architecture: str = SELECTED_ARCHITECTURE
    window_steps: int = DEFAULT_WINDOW_STEPS
    stride: int = 1
    learning_rate: float = 0.001
    l2_lambda: float = 0.001
    batch_size: int = 1500
    max_epochs: int = 200
    patience: int = 20
    seed: int = 0
    split: tuple[float, float, float] = field(default=(0.6, 0.2, 0.2))

    def __post_init__(self):
        parse_architecture(self.architecture)
        if self.window_steps < 2:
            raise ConfigError(f"window_steps must be at least 2, got {self.window_steps}")
        if self.stride < 1:
            raise ConfigError(f"stride must be at least 1, got {self.stride}")
        if self.seed < 0:
            raise ConfigError(f"seed cannot be negative, got {self.seed}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be at least 1, got {self.max_epochs}")
        if self.patience < 1:
            raise ConfigError(f"patience must be at least 1, got {self.patience}")
        if not 0.0 < self.learning_rate < np.inf:
            raise ConfigError(f"learning_rate must be finite and positive, "
                              f"got {self.learning_rate}")
        if not 0.0 <= self.l2_lambda < np.inf:
            raise ConfigError(f"l2_lambda must be finite and not negative, "
                              f"got {self.l2_lambda}")
        check_split(self.split)


@dataclass
class ScoreSeries:
    """Per-window, per-feature reconstruction scores.

    scores[i][j] is the time-averaged squared reconstruction error of
    feature j over the window starting at window_starts[i] (epoch minutes),
    in normalized units.
    """

    scores: np.ndarray           # [n_windows, n_features]
    window_starts: np.ndarray    # int64 epoch minutes
    window_steps: int
    feature_names: tuple[str, ...]

    def __len__(self) -> int:
        return self.scores.shape[0]

    def to_dict(self) -> dict:
        return {
            "format": SCORES_FORMAT,
            "format_version": SCORES_FORMAT_VERSION,
            "window_steps": self.window_steps,
            "feature_names": list(self.feature_names),
            "window_starts": minutes_to_iso(self.window_starts),
            "scores": self.scores.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ScoreSeries":
        try:
            if payload["format"] != SCORES_FORMAT:
                raise ModelIOError(f"not a score file (format {payload['format']!r})")
            if payload["format_version"] != SCORES_FORMAT_VERSION:
                raise ModelIOError(
                    f"unsupported score format version {payload['format_version']!r}")
            names = _feature_names(payload["feature_names"])
            starts = stamps_to_minutes(payload["window_starts"])
            scores = np.asarray(payload["scores"], dtype=np.float64)
            steps = _window_steps(payload["window_steps"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelIOError(f"malformed score file: {exc}") from None
        if scores.ndim != 2 or scores.shape != (len(starts), len(names)):
            raise ModelIOError(f"score matrix shape {scores.shape} does not match "
                               f"{len(starts)} windows x {len(names)} features")
        back = np.flatnonzero(np.diff(starts) <= 0) + 1
        if back.size:
            raise ModelIOError(f"window starts must be strictly increasing: window "
                               f"{back[0]} starts at {payload['window_starts'][back[0]]}")
        return cls(scores, starts, steps, names)

    def write_json(self, path: str) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def read_json(cls, path: str) -> "ScoreSeries":
        return cls.from_dict(read_json(path, ModelIOError))

    def write_csv(self, path: str) -> None:
        write_minute_csv(path, "window_start", self.window_starts,
                         self.feature_names, self.scores)


def _feature_names(value) -> tuple[str, ...]:
    """Stored feature names, each of which must appear once and hold only
    characters XML can hold: ``load_metrics`` refuses a CSV that breaks
    either rule, so such a name is a fault of the file."""
    names = tuple(value)
    repeated = [name for i, name in enumerate(names) if name in names[:i]]
    if repeated:
        raise ModelIOError(f"feature name {repeated[0]!r} appears more than once")
    bad = not_xml_name(names)
    if bad is not None:
        raise ModelIOError(f"feature name {bad!r} holds a character that XML "
                           f"cannot hold")
    return names


def _window_steps(value) -> int:
    """A stored window length: a JSON integer, not a boolean, of at least 2."""
    if type(value) is not int:
        raise ModelIOError(f"window_steps must be an integer, got {value!r}")
    if value < 2:
        raise ModelIOError(f"window_steps must be at least 2, got {value}")
    return value


def _score_window_array(network: Network, windows: np.ndarray) -> np.ndarray:
    """[n, T, F] normalized windows -> [n, F] time-averaged squared errors.

    The network runs in float32, as in training, whatever dtype the caller's
    windows have; the time mean sums a float64 copy of the squared errors,
    which gives the bits of ``mean(axis=1, dtype=np.float64)`` faster.

    The windows go through in ceil(n / ``_SCORE_CHUNK``) chunks whose sizes
    differ by at most one. A chunk's temporaries then stay small enough for
    the allocator to hand the same pages back to the next chunk instead of
    mapping fresh ones; and no chunk of a frame with at least ``_SCORE_CHUNK``
    windows is smaller than half of it, so no window lands in a tiny tail that
    BLAS would multiply with its small-matrix kernels, whose bits differ.
    """
    steps = windows.shape[1]
    parts = []
    for chunk in np.array_split(windows, -(-windows.shape[0] // _SCORE_CHUNK)):
        # windows may be an overlapping view, which BLAS cannot take
        chunk = np.ascontiguousarray(chunk, dtype=np.float32)
        # an inference pass caches nothing, so its output buffer is ours
        resid = network.forward(chunk, training=False)
        resid -= chunk
        resid *= resid
        parts.append(_sum("bf", resid.astype(np.float64))[:, 0, :] / steps)
    return np.concatenate(parts, axis=0)


class Detector:
    """A trained reconstruction model plus its data pipeline settings."""

    def __init__(self, network: Network, norm: GlobalNorm, window_steps: int,
                 feature_names: tuple[str, ...], training_meta: dict | None = None):
        self.network = network
        self.norm = norm
        self.window_steps = window_steps
        self.feature_names = tuple(feature_names)
        self.training_meta = dict(training_meta or {})

    @property
    def architecture(self) -> str:
        return self.network.arch_text

    def _check_features(self, names: tuple[str, ...]) -> None:
        if tuple(names) != self.feature_names:
            raise DataError(f"feature names do not match the model: expected "
                            f"[{', '.join(self.feature_names)}], got [{', '.join(names)}]")

    def score_windows(self, windows: WindowSet, normalized: bool = False) -> ScoreSeries:
        if windows.window_steps != self.window_steps:
            raise DataError(f"windows span {windows.window_steps} steps but the model "
                            f"was trained on {self.window_steps}")
        self._check_features(windows.feature_names)
        data = windows.windows if normalized else self.norm.apply(windows.windows)
        scores = _score_window_array(self.network, data)
        return ScoreSeries(scores, windows.start_timestamps.copy(),
                           self.window_steps, self.feature_names)

    def score_frame(self, frame: MetricFrame, stride: int = 1) -> ScoreSeries:
        self._check_features(frame.metric_names)  # before norm.apply can broadcast
        normed = replace(frame, values=self.norm.apply(frame.values))
        windows = make_windows(normed, self.window_steps, stride)
        return self.score_windows(windows, normalized=True)


@dataclass
class TrainResult:
    detector: Detector
    history: list[dict]
    epochs_run: int
    best_epoch: int
    val_mse: float
    test_mse: float
    test_scores: ScoreSeries


def train(frame: MetricFrame, config: TrainConfig | None = None) -> TrainResult:
    """Fit a detector on a metric frame.

    The frame is globally z-normalized, cut into windows (gap-aware),
    and split chronologically into train/validation/test. Training runs
    mini-batch Adam with early stopping on validation MSE; the best
    validation snapshot is what the returned detector carries.
    """
    config = config or TrainConfig()
    norm = GlobalNorm.fit(frame)
    normed = replace(frame, values=norm.apply(frame.values))
    windows = make_windows(normed, config.window_steps, config.stride)
    parts = split_windows(windows, config.split)

    rng = np.random.default_rng(config.seed)
    spec = parse_architecture(config.architecture)
    network = build_network(spec, config.window_steps, frame.n_metrics, rng)
    optimizer = Adam(network.values, network.layout, learning_rate=config.learning_rate)
    lam = config.l2_lambda
    # the L2 penalty covers the weights of every dense layer, whatever its role
    weights = network.values[network.decayed]
    d_weights = network.grads[network.decayed]

    n_train = len(parts.train)
    batch_size = min(config.batch_size, n_train)
    elements = config.window_steps * frame.n_metrics

    best_val = np.inf
    best_epoch = 0
    best_state = None
    stale = 0
    history: list[dict] = []
    epochs_run = 0

    for epoch in range(1, config.max_epochs + 1):
        epochs_run = epoch
        order = rng.permutation(n_train)
        sq_sum = 0.0
        obj_sum = 0.0
        for start in range(0, n_train, batch_size):
            batch = parts.train.windows[order[start:start + batch_size]]
            batch_sq, grad = squared_error(network.forward(batch, training=True), batch)
            objective = batch_sq / batch.shape[0] + lam * float(weights @ weights)
            if not np.isfinite(objective):
                raise TrainingError(
                    f"non-finite training loss at epoch {epoch}, "
                    f"batch starting at window {start}")
            network.backward(grad, input_grad=False)
            d_weights += 2.0 * lam * weights
            optimizer.step(network.grads)
            sq_sum += batch_sq
            obj_sum += objective * batch.shape[0]

        val_scores = _score_window_array(network, parts.val.windows)
        val_mse = float(val_scores.mean())
        history.append({
            "epoch": epoch,
            "train_objective": obj_sum / n_train,
            "train_mse": sq_sum / (n_train * elements),
            "val_mse": val_mse,
        })
        if val_mse < best_val:
            best_val = val_mse
            best_epoch = epoch
            best_state = network.get_state()
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    network.set_state(best_state)
    detector = Detector(network, norm, config.window_steps, frame.metric_names)
    test_scores = detector.score_windows(parts.test, normalized=True)
    test_mse = float(test_scores.scores.mean())
    detector.training_meta = {
        "architecture": config.architecture,
        "seed": config.seed,
        "epochs_run": epochs_run,
        "best_epoch": best_epoch,
        "val_mse": best_val,
        "test_mse": test_mse,
        "n_windows": {"train": len(parts.train), "val": len(parts.val),
                      "test": len(parts.test)},
    }
    return TrainResult(detector, history, epochs_run, best_epoch, best_val,
                       test_mse, test_scores)


def save_model(detector: Detector, path: str) -> None:
    """Write a detector as versioned JSON with an integrity checksum.

    Every state array and normalization vector is stored by
    ``encode_array`` as the base64 of its bytes, so it loads bit for bit,
    and the checksum is taken over those strings.
    """
    payload = {
        "format": MODEL_FORMAT,
        "format_version": MODEL_FORMAT_VERSION,
        "architecture": detector.architecture,
        "window_steps": detector.window_steps,
        "feature_names": list(detector.feature_names),
        "normalization": {"mean": encode_array(detector.norm.mean),
                          "std": encode_array(detector.norm.std)},
        "state": {name: encode_array(value)
                  for name, value in detector.network.get_state().items()},
        "training": detector.training_meta,
    }
    write_json(path, {**payload, "checksum": json_checksum(payload)})


def load_model(path: str) -> Detector:
    """Read a ``save_model`` file. Other format versions, a failed checksum,
    a repeated feature name, a state that does not fit the architecture and
    a non-finite state entry or normalization value are refused with
    ``ModelIOError``."""
    payload = read_json(path, ModelIOError)
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise ModelIOError(f"{path} is not a model file")
    version = payload.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelIOError(f"{path}: model format version {version!r} cannot be read "
                           f"(dbdiag reads version {MODEL_FORMAT_VERSION}); re-train "
                           f"the model")
    stored = payload.pop("checksum", None)
    if stored != json_checksum(payload):
        raise ModelIOError(f"{path} failed its integrity check; the file is corrupt")
    try:
        spec = parse_architecture(payload["architecture"])
        window_steps = _window_steps(payload["window_steps"])
        names = _feature_names(payload["feature_names"])
        norm = GlobalNorm(
            names,
            np.array(decode_array(payload["normalization"]["mean"]), dtype=np.float64),
            np.array(decode_array(payload["normalization"]["std"]), dtype=np.float64),
        )
        _check_normalization(path, norm)
        network = build_network(spec, window_steps, len(names),
                                np.random.default_rng(0))
        state = {name: decode_array(entry) for name, entry in payload["state"].items()}
        try:
            network.set_state(state)
        except InternalError as exc:
            raise ModelIOError(f"{path}: {exc}") from None
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ModelIOError(f"malformed model file: {exc}") from None
    for name, value in state.items():
        bad = value[~np.isfinite(value)]
        if bad.size:
            raise ModelIOError(f"{path}: state entry {name} holds {float(bad[0])}")
    return Detector(network, norm, window_steps, names,
                    payload.get("training", {}))


def _check_normalization(path: str, norm: GlobalNorm) -> None:
    """Refuse a mean or std without one finite entry per feature, or a std
    entry that is not positive: scores would be wrong or non-finite."""
    for key, vec in (("mean", norm.mean), ("std", norm.std)):
        if vec.shape != (len(norm.feature_names),):
            raise ModelIOError(f"{path}: normalization.{key} has shape {vec.shape} "
                               f"for {len(norm.feature_names)} features")
        bad = np.flatnonzero(~np.isfinite(vec) | ((key == "std") & (vec <= 0.0)))
        if bad.size:
            j = int(bad[0])
            raise ModelIOError(f"{path}: normalization.{key}[{j}] "
                               f"({norm.feature_names[j]!r}) is {float(vec[j])}")


def model_digest(path: str) -> str:
    """sha256 of a model file's bytes, for provenance stamping in reports."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def run_ablation(frame: MetricFrame, architectures: tuple[str, ...] | None = None,
                 config: TrainConfig | None = None) -> list[dict]:
    """Train one model per architecture under identical settings.

    Every run reuses the same seed and hyperparameters so the only varying
    factor is the architecture. Failures are reported per-row rather than
    aborting the sweep.
    """
    base = config or TrainConfig()
    rows = []
    for arch in architectures or TABLE_ARCHITECTURES:
        try:
            result = train(frame, replace(base, architecture=arch))
        except (ConfigError, TrainingError) as exc:
            rows.append({"architecture": arch, "error": str(exc)})
            continue
        rows.append({
            "architecture": arch,
            "test_mse": result.test_mse,
            "val_mse": result.val_mse,
            "best_epoch": result.best_epoch,
            "epochs_run": result.epochs_run,
        })
    return rows
