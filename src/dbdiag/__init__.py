"""Anomaly-period detection and wait-event ranking for DBMS metric series.

The pipeline: minute-resolution metrics are z-normalized, cut into sliding
windows, and reconstructed by an autoencoder whose first and last layers
normalize each window along its own time axis. Per-window reconstruction
errors feed control charts that flag anomaly periods, and wait events are
ranked against each period by warping distance and correlation.
"""

from .architecture import ArchitectureSpec, build_network, parse_architecture
from .data import (
    GlobalNorm,
    MetricFrame,
    WindowSet,
    iso_to_minute,
    load_metrics,
    make_windows,
    minute_to_iso,
    split_windows,
    write_metrics,
)
from .detector import (
    SELECTED_ARCHITECTURE,
    TABLE_ARCHITECTURES,
    Detector,
    ScoreSeries,
    TrainConfig,
    model_digest,
    TrainResult,
    load_model,
    run_ablation,
    save_model,
    train,
)
from .errors import (
    ArchitectureError,
    ConfigError,
    DataError,
    DiagError,
    InternalError,
    ModelError,
    ModelIOError,
    TrainingError,
)
from .report import ReportConfig, build_report, diagnose, render_text, write_report
from .similarity import EventMatch, dtw_distance, match_events, pearson
from .spc import (
    AnomalyPeriod,
    ControlChart,
    DetectionResult,
    PeriodGroup,
    detect,
    find_out_of_control,
    fit_chart,
    group_periods,
    merge_periods,
)
from .synth import (
    Baseline,
    Injection,
    Scenario,
    ScenarioSpec,
    TruthLabel,
    default_scenario,
    drift_scenario,
    evaluate_detection,
    generate,
    null_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "AnomalyPeriod",
    "ArchitectureError",
    "ArchitectureSpec",
    "Baseline",
    "ConfigError",
    "ControlChart",
    "DataError",
    "DetectionResult",
    "Detector",
    "DiagError",
    "EventMatch",
    "GlobalNorm",
    "Injection",
    "InternalError",
    "MetricFrame",
    "ModelError",
    "ModelIOError",
    "PeriodGroup",
    "Scenario",
    "ScenarioSpec",
    "ScoreSeries",
    "SELECTED_ARCHITECTURE",
    "TABLE_ARCHITECTURES",
    "ReportConfig",
    "TrainConfig",
    "TrainResult",
    "TrainingError",
    "TruthLabel",
    "WindowSet",
    "build_network",
    "build_report",
    "default_scenario",
    "drift_scenario",
    "detect",
    "diagnose",
    "dtw_distance",
    "evaluate_detection",
    "find_out_of_control",
    "fit_chart",
    "generate",
    "group_periods",
    "iso_to_minute",
    "load_metrics",
    "load_model",
    "make_windows",
    "match_events",
    "merge_periods",
    "minute_to_iso",
    "model_digest",
    "null_scenario",
    "parse_architecture",
    "pearson",
    "render_text",
    "run_ablation",
    "save_model",
    "split_windows",
    "train",
    "write_metrics",
    "write_report",
]
