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

import csv
import hashlib
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .architecture import build_network, parse_architecture
from .data import (
    DEFAULT_WINDOW_STEPS,
    GlobalNorm,
    MetricFrame,
    WindowSet,
    iso_to_minute,
    make_windows,
    minute_to_iso,
    split_windows,
)
from .errors import ConfigError, DataError, ModelIOError, TrainingError
from .nn import Adam, Network, mse_loss_grad

MODEL_FORMAT = "dbdiag-model"
SCORES_FORMAT = "dbdiag-scores"
FORMAT_VERSION = 1
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

_SCORE_CHUNK = 4096


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
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be at least 1, got {self.max_epochs}")
        if self.patience < 1:
            raise ConfigError(f"patience must be at least 1, got {self.patience}")
        if self.learning_rate <= 0.0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.l2_lambda < 0.0:
            raise ConfigError(f"l2_lambda cannot be negative, got {self.l2_lambda}")


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

    def column(self, name: str) -> np.ndarray:
        try:
            idx = self.feature_names.index(name)
        except ValueError:
            raise DataError(f"no score column named {name!r}; "
                            f"have {', '.join(self.feature_names)}") from None
        return self.scores[:, idx]

    def to_dict(self) -> dict:
        return {
            "format": SCORES_FORMAT,
            "format_version": FORMAT_VERSION,
            "window_steps": self.window_steps,
            "feature_names": list(self.feature_names),
            "window_starts": [minute_to_iso(int(m)) for m in self.window_starts],
            "scores": self.scores.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ScoreSeries":
        try:
            if payload["format"] != SCORES_FORMAT:
                raise ModelIOError(f"not a score file (format {payload['format']!r})")
            if payload["format_version"] != FORMAT_VERSION:
                raise ModelIOError(
                    f"unsupported score format version {payload['format_version']!r}")
            names = tuple(payload["feature_names"])
            starts = np.asarray([iso_to_minute(t) for t in payload["window_starts"]],
                                dtype=np.int64)
            scores = np.asarray(payload["scores"], dtype=np.float64)
            steps = int(payload["window_steps"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelIOError(f"malformed score file: {exc}") from None
        if scores.ndim != 2 or scores.shape != (len(starts), len(names)):
            raise ModelIOError(f"score matrix shape {scores.shape} does not match "
                               f"{len(starts)} windows x {len(names)} features")
        return cls(scores, starts, steps, names)

    def write_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def read_json(cls, path: str) -> "ScoreSeries":
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except OSError as exc:
            raise ModelIOError(f"cannot open {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ModelIOError(f"{path} is not valid JSON: {exc}") from None
        return cls.from_dict(payload)

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["window_start", *self.feature_names])
            for ts, row in zip(self.window_starts, self.scores):
                writer.writerow([minute_to_iso(int(ts)),
                                 *(repr(float(v)) for v in row)])


def _score_window_array(network: Network, windows: np.ndarray) -> np.ndarray:
    """[n, T, F] normalized windows -> [n, F] time-averaged squared errors."""
    parts = []
    for start in range(0, windows.shape[0], _SCORE_CHUNK):
        chunk = windows[start:start + _SCORE_CHUNK]
        recon = network.forward(chunk, training=False)
        resid = recon - chunk
        parts.append((resid * resid).mean(axis=1))
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

    def score_windows(self, windows: WindowSet, normalized: bool = False) -> ScoreSeries:
        if windows.window_steps != self.window_steps:
            raise DataError(f"windows span {windows.window_steps} steps but the model "
                            f"was trained on {self.window_steps}")
        if tuple(windows.feature_names) != self.feature_names:
            raise DataError(
                f"feature names do not match the model: expected "
                f"[{', '.join(self.feature_names)}], got "
                f"[{', '.join(windows.feature_names)}]")
        data = windows.windows if normalized else self.norm.apply(windows.windows)
        scores = _score_window_array(self.network, data)
        return ScoreSeries(scores, windows.start_timestamps.copy(),
                           self.window_steps, self.feature_names)

    def score_frame(self, frame: MetricFrame, stride: int = 1) -> ScoreSeries:
        if tuple(frame.metric_names) != self.feature_names:
            raise DataError(
                f"feature names do not match the model: expected "
                f"[{', '.join(self.feature_names)}], got "
                f"[{', '.join(frame.metric_names)}]")
        windows = make_windows(frame, self.window_steps, stride)
        return self.score_windows(windows)


@dataclass
class TrainResult:
    detector: Detector
    history: list[dict]
    epochs_run: int
    best_epoch: int
    val_mse: float
    test_mse: float
    test_scores: ScoreSeries


def _l2_term(params: dict[str, np.ndarray], lam: float) -> float:
    if lam == 0.0:
        return 0.0
    total = 0.0
    for name, p in params.items():
        if _is_dense_weight(name):
            total += float(np.sum(p * p))
    return lam * total


def _is_dense_weight(name: str) -> bool:
    label = name.split(":", 1)[1]
    return label.startswith("dense") and label.endswith(".weights")


def train(frame: MetricFrame, config: TrainConfig | None = None) -> TrainResult:
    """Fit a detector on a metric frame.

    The frame is globally z-normalized, cut into windows (gap-aware),
    and split chronologically into train/validation/test. Training runs
    mini-batch Adam with early stopping on validation MSE; the best
    validation snapshot is what the returned detector carries.
    """
    config = config or TrainConfig()
    norm = GlobalNorm.fit(frame)
    normed = MetricFrame(frame.metric_names, frame.timestamps,
                         norm.apply(frame.values), frame.kind)
    windows = make_windows(normed, config.window_steps, config.stride)
    parts = split_windows(windows, config.split)

    rng = np.random.default_rng(config.seed)
    spec = parse_architecture(config.architecture)
    network = build_network(spec, config.window_steps, frame.n_metrics, rng)
    params = network.parameters()
    optimizer = Adam(params, learning_rate=config.learning_rate)

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
            recon = network.forward(batch, training=True)
            resid = recon - batch
            batch_sq = float(np.sum(resid * resid))
            objective = batch_sq / batch.shape[0] + _l2_term(params, config.l2_lambda)
            if not np.isfinite(objective):
                raise TrainingError(
                    f"non-finite training loss at epoch {epoch}, "
                    f"batch starting at window {start}")
            network.backward(mse_loss_grad(recon, batch))
            grads = network.gradients()
            if config.l2_lambda != 0.0:
                for name in grads:
                    if _is_dense_weight(name):
                        grads[name] = grads[name] + 2.0 * config.l2_lambda * params[name]
            optimizer.step(grads)
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
    test_scores_arr = _score_window_array(network, parts.test.windows)
    test_mse = float(test_scores_arr.mean())
    test_scores = ScoreSeries(test_scores_arr, parts.test.start_timestamps.copy(),
                              config.window_steps, frame.metric_names)

    meta = {
        "architecture": config.architecture,
        "seed": config.seed,
        "epochs_run": epochs_run,
        "best_epoch": best_epoch,
        "val_mse": best_val,
        "test_mse": test_mse,
        "n_windows": {"train": len(parts.train), "val": len(parts.val),
                      "test": len(parts.test)},
    }
    detector = Detector(network, norm, config.window_steps, frame.metric_names, meta)
    return TrainResult(detector, history, epochs_run, best_epoch, best_val,
                       test_mse, test_scores)


def _canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def save_model(detector: Detector, path: str) -> None:
    """Write a detector as versioned JSON with an integrity checksum."""
    state = detector.network.get_state()
    payload = {
        "format": MODEL_FORMAT,
        "format_version": FORMAT_VERSION,
        "architecture": detector.architecture,
        "window_steps": detector.window_steps,
        "feature_names": list(detector.feature_names),
        "normalization": {
            "mean": detector.norm.mean.tolist(),
            "std": detector.norm.std.tolist(),
        },
        "state": {name: value.tolist() for name, value in state.items()},
        "training": detector.training_meta,
    }
    payload["checksum"] = hashlib.sha256(
        _canonical_json(payload).encode()).hexdigest()
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path: str) -> Detector:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ModelIOError(f"cannot open {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ModelIOError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise ModelIOError(f"{path} is not a model file")
    if payload.get("format_version") != FORMAT_VERSION:
        raise ModelIOError(
            f"unsupported model format version {payload.get('format_version')!r}")
    stored = payload.get("checksum")
    stripped = {k: v for k, v in payload.items() if k != "checksum"}
    actual = hashlib.sha256(_canonical_json(stripped).encode()).hexdigest()
    if stored != actual:
        raise ModelIOError(f"{path} failed its integrity check; the file is corrupt")
    try:
        spec = parse_architecture(payload["architecture"])
        window_steps = int(payload["window_steps"])
        names = tuple(payload["feature_names"])
        norm = GlobalNorm(
            names,
            np.asarray(payload["normalization"]["mean"], dtype=np.float64),
            np.asarray(payload["normalization"]["std"], dtype=np.float64),
        )
        network = build_network(spec, window_steps, len(names),
                                np.random.default_rng(0))
        state = {name: np.asarray(value, dtype=np.float64)
                 for name, value in payload["state"].items()}
        network.set_state(state)
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelIOError(f"malformed model file: {exc}") from None
    return Detector(network, norm, window_steps, names,
                    payload.get("training", {}))


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
        cfg = replace(base, architecture=arch)
        try:
            result = train(frame, cfg)
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
