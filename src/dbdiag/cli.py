"""Command-line interface.

Subcommands cover the whole pipeline: ``gen`` makes a labeled synthetic
scenario, ``train`` fits a model, ``score`` turns metrics into reconstruction
scores, ``detect`` extracts anomaly periods, ``match`` ranks wait events over
a period, ``report`` runs score+detect+match end to end, and ``ablate``
compares architectures on one data set.

Exit codes: 0 success, 2 usage or configuration problem, 3 input data
problem, 4 model problem (training failure, unreadable or corrupt model
file), 5 internal error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from .data import (iso_to_minute, load_metrics, minute_to_iso, read_json,
                   write_csv_rows, write_json, write_metrics)
from .detector import (
    TABLE_ARCHITECTURES,
    ScoreSeries,
    TrainConfig,
    load_model,
    run_ablation,
    save_model,
    train,
)
from .errors import ConfigError, DataError, DiagError
from .report import (ReportConfig, check_out_dir, check_out_files, diagnose, render_text,
                     write_report)
from .similarity import match_events
from .spc import detect, group_periods
from .synth import (
    ScenarioSpec,
    default_scenario,
    drift_scenario,
    generate,
    null_scenario,
)

EXIT_OK = 0
EXIT_INTERNAL = 5

_CONTROL_KEYS = {"command", "config"}

# Every tuning flag defaults to the library's own default.
_TRAIN = TrainConfig()
_REPORT = ReportConfig()

# Flags whose names differ from the TrainConfig or ReportConfig field they set
_FIELD_OF_FLAG = {"window": "window_steps", "epochs": "max_epochs",
                  "sigma": "sigma_k", "margin": "match_margin"}


def _add_train_options(sp: argparse.ArgumentParser) -> None:
    """The TrainConfig options that train and ablate share."""
    sp.add_argument("--window", type=int, default=_TRAIN.window_steps,
                    help="window length in minutes")
    sp.add_argument("--learning-rate", type=float, default=_TRAIN.learning_rate)
    sp.add_argument("--l2-lambda", type=float, default=_TRAIN.l2_lambda)
    sp.add_argument("--batch-size", type=int, default=_TRAIN.batch_size)
    sp.add_argument("--epochs", type=int, default=_TRAIN.max_epochs, help="epoch cap")
    sp.add_argument("--patience", type=int, default=_TRAIN.patience,
                    help="early-stop patience in epochs")
    sp.add_argument("--seed", type=int, default=_TRAIN.seed)


def _config_from(cls, args: argparse.Namespace):
    """The TrainConfig or ReportConfig that the parsed flags describe."""
    names = {f.name for f in fields(cls)}
    given = {_FIELD_OF_FLAG.get(flag, flag): value for flag, value in vars(args).items()}
    return cls(**{name: value for name, value in given.items() if name in names})


def _minute_of(flag: str, text: str) -> int:
    """The epoch minute a ``--start`` or ``--end`` stamp names; a stamp that
    names none is a usage error."""
    try:
        return iso_to_minute(text)
    except DataError as exc:
        raise ConfigError(f"{flag}: {exc}") from None


def _split_type(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"split needs three comma-separated fractions, got {text!r}")
    try:
        return tuple(float(p) for p in parts)  # type: ignore[return-value]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad split fractions {text!r}") from None


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser plus its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="dbdiag",
        description="Anomaly-period detection and wait-event ranking for "
                    "DBMS metric series.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen", help="generate a labeled synthetic scenario")
    sp.add_argument("--out-dir", required=True, help="directory for the CSVs and labels")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--duration", type=int,
                    help="scenario length in minutes")
    sp.add_argument("--null", action="store_true",
                    help="no injections (clean baseline)")
    sp.add_argument("--drift", action="store_true",
                    help="add per-feature level drift (non-stationary variant)")
    sp.add_argument("--spec",
                    help="scenario JSON (mutually exclusive with the other knobs)")

    sp = sub.add_parser("train", help="fit a detector on a metric CSV")
    sp.add_argument("--stats", required=True, help="metric CSV to train on")
    sp.add_argument("--model", required=True, help="output model JSON path")
    sp.add_argument("--architecture", default=_TRAIN.architecture)
    _add_train_options(sp)
    sp.add_argument("--stride", type=int, default=_TRAIN.stride)
    sp.add_argument("--split", type=_split_type, default=_TRAIN.split,
                    help="train,val,test fractions")
    sp.add_argument("--history",
                    help="also write per-epoch history JSON here")
    sp.add_argument("--verbose", action="store_true")

    sp = sub.add_parser("score", help="score a metric CSV with a trained model")
    sp.add_argument("--model", required=True)
    sp.add_argument("--stats", required=True)
    sp.add_argument("--out", required=True, help="output scores JSON")
    sp.add_argument("--csv", help="also write scores as CSV")
    sp.add_argument("--stride", type=int, default=1)

    sp = sub.add_parser("detect", help="find anomaly periods in a score series")
    sp.add_argument("--scores", required=True, help="scores JSON from 'score'")
    sp.add_argument("--out", required=True, help="output detections JSON")
    sp.add_argument("--sigma", type=float, default=_REPORT.sigma_k,
                    help="control-limit multiplier")
    sp.add_argument("--gap-tolerance", type=int, default=_REPORT.gap_tolerance,
                    help="unflagged windows allowed inside one period")
    sp.add_argument("--baseline",
                    help="fit limits on this scores JSON instead of the scored series")

    sp = sub.add_parser("match", help="rank wait events against a metric over a period")
    sp.add_argument("--stats", required=True)
    sp.add_argument("--events", required=True)
    sp.add_argument("--feature", required=True)
    sp.add_argument("--start", required=True,
                    help="period start (ISO-8601 or epoch seconds)")
    sp.add_argument("--end", required=True,
                    help="period end, exclusive (ISO-8601 or epoch seconds)")
    sp.add_argument("--margin", type=int, default=_REPORT.match_margin,
                    help="extra minutes after the period")
    sp.add_argument("--top", type=int, default=10)
    sp.add_argument("--out", help="write matches JSON here")

    sp = sub.add_parser("report", help="full diagnosis: score, detect, rank, chart")
    sp.add_argument("--model", required=True)
    sp.add_argument("--stats", required=True)
    sp.add_argument("--out-dir", required=True)
    sp.add_argument("--events", help="wait-event CSV")
    sp.add_argument("--sigma", type=float, default=_REPORT.sigma_k)
    sp.add_argument("--gap-tolerance", type=int, default=_REPORT.gap_tolerance)
    sp.add_argument("--top-periods", type=int, default=_REPORT.top_periods)
    sp.add_argument("--top-events", type=int, default=_REPORT.top_events)
    sp.add_argument("--margin", type=int, default=_REPORT.match_margin)
    sp.add_argument("--stride", type=int, default=1)
    sp.add_argument("--quiet", action="store_true")

    sp = sub.add_parser("ablate", help="train several architectures on one data set")
    sp.add_argument("--stats", required=True)
    sp.add_argument("--architectures",
                    help="semicolon-separated list (default: the built-in comparison set)")
    _add_train_options(sp)
    sp.add_argument("--out", help="write results JSON here")

    # --config supplies defaults for tuning options; explicit flags win.
    for sp in sub.choices.values():
        sp.add_argument("--config", help="JSON file of option defaults (flag names with "
                                         "underscores); explicit flags override it")
    return parser, sub.choices


def _merge_config(args: argparse.Namespace, parser: argparse.ArgumentParser,
                  command: argparse.ArgumentParser, argv: list[str]
                  ) -> argparse.Namespace:
    """Re-parse ``argv`` with the config file's values as the defaults of
    ``command``, so explicit flags still win."""
    path = args.config
    if not path:
        return args
    cfg = read_json(path, ConfigError)
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object")

    allowed = set(vars(args)) - _CONTROL_KEYS
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"config {path} has unknown option(s) for "
                          f"'{args.command}': {', '.join(sorted(unknown))}")
    # argparse converts a string default with the option's type, so a config
    # value goes through the same check as the flag's text would
    command.set_defaults(**{key: _as_flag_text(path, key, value, command.get_default(key))
                            for key, value in cfg.items()})
    return parser.parse_args(argv)


def _as_flag_text(path: str, key: str, value, default):
    """A config value as the text its flag would take. On/off flags take JSON
    booleans, null stays null where it is the default, and a list (the split)
    joins with commas."""
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"config {path}: {key} must be true or false, got {value!r}")
        return value
    if value is None and default is None:
        return value
    if isinstance(value, list):
        return ",".join(map(str, value))
    return str(value)


def _cmd_gen(args) -> int:
    if args.spec and (args.seed is not None or args.duration is not None
                      or args.null or args.drift):
        raise ConfigError("--spec cannot be combined with --seed, --duration, "
                          "--null or --drift")
    if args.null and args.drift:
        raise ConfigError("--null and --drift are mutually exclusive")
    if args.spec:
        spec = ScenarioSpec.read_json(args.spec)
    else:
        # the scenario function supplies whatever the user left unset
        make_spec = (null_scenario if args.null else
                     drift_scenario if args.drift else default_scenario)
        given = {"seed": args.seed, "duration_minutes": args.duration}
        spec = make_spec(**{k: v for k, v in given.items() if v is not None})
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ConfigError(f"cannot write the scenario: {args.out_dir} is not "
                          f"a directory") from None
    scenario = generate(spec)
    stats_path = os.path.join(args.out_dir, "stats.csv")
    events_path = os.path.join(args.out_dir, "events.csv")
    write_metrics(stats_path, scenario.stats)
    write_metrics(events_path, scenario.events)
    spec.write_json(os.path.join(args.out_dir, "scenario.json"))
    labels = [{**lab.to_dict(), "start": minute_to_iso(lab.start),
               "end": minute_to_iso(lab.end), "start_minute": lab.start,
               "end_minute": lab.end} for lab in scenario.labels]
    write_json(os.path.join(args.out_dir, "labels.json"), labels)
    print(f"wrote {spec.duration_minutes}-minute scenario to {args.out_dir} "
          f"({len(scenario.labels)} labeled anomalies)")
    return EXIT_OK


def _cmd_train(args) -> int:
    config = _config_from(TrainConfig, args)
    check_out_files(args.model, args.history)
    frame = load_metrics(args.stats)
    result = train(frame, config)
    if args.verbose:
        for row in result.history:
            print(f"epoch {row['epoch']:4d}  objective {row['train_objective']:.6f}  "
                  f"train_mse {row['train_mse']:.6f}  val_mse {row['val_mse']:.6f}")
    save_model(result.detector, args.model)
    if args.history:
        write_json(args.history, result.history)
    print(f"trained {config.architecture} on {len(frame.timestamps)} minutes: "
          f"{result.epochs_run} epochs (best {result.best_epoch}), "
          f"val_mse {result.val_mse:.6f}, test_mse {result.test_mse:.6f}")
    print(f"model written to {args.model}")
    return EXIT_OK


def _cmd_score(args) -> int:
    if args.stride < 1:
        raise ConfigError(f"stride must be at least 1, got {args.stride}")
    check_out_files(args.out, args.csv)
    detector = load_model(args.model)
    frame = load_metrics(args.stats)
    scores = detector.score_frame(frame, stride=args.stride)
    scores.write_json(args.out)
    if args.csv:
        scores.write_csv(args.csv)
    print(f"scored {len(scores)} windows of {scores.window_steps} minutes "
          f"over {len(scores.feature_names)} features -> {args.out}")
    return EXIT_OK


def _cmd_detect(args) -> int:
    config = _config_from(ReportConfig, args)
    check_out_files(args.out)
    scores = ScoreSeries.read_json(args.scores)
    baseline = ScoreSeries.read_json(args.baseline) if args.baseline else None
    result = detect(scores, k=config.sigma_k, gap_tolerance=config.gap_tolerance,
                    baseline=baseline)
    groups = group_periods(result)
    payload = {
        "format": "dbdiag-detections",
        "format_version": 1,
        "sigma_k": config.sigma_k,
        "gap_tolerance": config.gap_tolerance,
        "charts": {
            name: {**chart.to_dict(),
                   "flagged_windows": int(result.flagged[name].size)}
            for name, chart in result.charts.items()},
        "feature_periods": {name: [p.to_dict() for p in plist]
                            for name, plist in result.periods.items()},
        "groups": [g.to_dict() for g in groups],
    }
    write_json(args.out, payload)
    total = sum(len(p) for p in result.periods.values())
    print(f"{total} per-feature period(s) in {len(groups)} group(s) "
          f"at {config.sigma_k:g} sigma -> {args.out}")
    for g in groups:
        print(f"  rank {g.rank}: {minute_to_iso(g.start)} .. {minute_to_iso(g.end)} "
              f"primary {g.primary_feature} peak {g.peak_score:.4g}")
    return EXIT_OK


def _cmd_match(args) -> int:
    if args.top < 1:
        raise ConfigError(f"--top must be at least 1, got {args.top}")
    config = _config_from(ReportConfig, args)
    start, end = _minute_of("--start", args.start), _minute_of("--end", args.end)
    if end <= start:
        raise ConfigError(f"--end {args.end} is not after --start {args.start}")
    check_out_files(args.out)
    stats = load_metrics(args.stats)
    events = load_metrics(args.events, kind="event")
    matches = match_events(stats, args.feature, events, start, end,
                           margin=config.match_margin)
    shown = matches[:args.top]
    width = max((len(m.event) for m in shown), default=5)
    print(f"{'event':<{width}}  {'dtw':>10}  {'corr':>7}  rank_dtw  rank_corr")
    for m in shown:
        corr = "n/a" if m.correlation is None else f"{m.correlation:7.4f}"
        print(f"{m.event:<{width}}  {m.dtw:10.4f}  {corr:>7}  "
              f"{m.rank_dtw:8d}  {m.rank_correlation:9d}")
    if args.out and args.out.endswith(".csv"):
        write_csv_rows(args.out, ["event", "dtw", "correlation", "rank_dtw",
                                  "rank_correlation"],
                       [[m.event, repr(m.dtw),
                         "" if m.correlation is None else repr(m.correlation),
                         m.rank_dtw, m.rank_correlation] for m in matches])
    elif args.out:
        write_json(args.out, {"feature": args.feature, "start": args.start,
                              "end": args.end, "margin": config.match_margin,
                              "matches": [m.to_dict() for m in matches]})
    return EXIT_OK


def _cmd_report(args) -> int:
    config = _config_from(ReportConfig, args)
    if args.stride < 1:
        raise ConfigError(f"stride must be at least 1, got {args.stride}")
    check_out_dir(args.out_dir)
    report, charts = diagnose(args.model, args.stats, args.events, config, args.stride)
    written = write_report(args.out_dir, report, charts)
    if not args.quiet:
        print(render_text(report), end="")
    print(f"report written to {args.out_dir} ({len(written)} files)")
    return EXIT_OK


def _cmd_ablate(args) -> int:
    config = _config_from(TrainConfig, args)
    check_out_files(args.out)
    if args.architectures:
        archs = tuple(a.strip() for a in args.architectures.split(";") if a.strip())
        if not archs:
            raise ConfigError("--architectures is empty")
    else:
        archs = TABLE_ARCHITECTURES
    frame = load_metrics(args.stats)
    rows = run_ablation(frame, archs, config)
    width = max(len(r["architecture"]) for r in rows)
    print(f"{'architecture':<{width}}  {'test_mse':>10}  {'val_mse':>10}  best/epochs")
    for r in rows:
        if "error" in r:
            print(f"{r['architecture']:<{width}}  failed: {r['error']}")
        else:
            print(f"{r['architecture']:<{width}}  {r['test_mse']:10.4f}  "
                  f"{r['val_mse']:10.4f}  {r['best_epoch']}/{r['epochs_run']}")
    if args.out:
        write_json(args.out, rows)
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "train": _cmd_train,
    "score": _cmd_score,
    "detect": _cmd_detect,
    "match": _cmd_match,
    "report": _cmd_report,
    "ablate": _cmd_ablate,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, commands = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
            args = _merge_config(args, parser, commands[args.command], argv)
        except SystemExit as exc:  # argparse's own exit: help or a bad value
            return int(exc.code or 0)
        return _COMMANDS[args.command](args)
    except DiagError as exc:
        kind = "internal error" if exc.exit_code == EXIT_INTERNAL else "error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
