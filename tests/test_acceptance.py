"""Acceptance suite.

One test per shipping criterion, each printing a single PASS/FAIL line (also
echoed after the run summary). The expensive trained models come from the
session fixtures in conftest; everything else is built here so each criterion
reads as a self-contained protocol.
"""

import hashlib
import math
import os
import time

import numpy as np
import pytest

from dbdiag import (
    MetricFrame,
    build_network,
    detect,
    group_periods,
    match_events,
    parse_architecture,
    pearson,
    save_model,
    write_metrics,
)
from dbdiag.cli import main as cli_main
from dbdiag.nn import TemporalNorm
from dbdiag.spc import find_out_of_control, fit_chart
from dbdiag.synth import evaluate_detection

from gradcheck import (
    analytic_gradients,
    min_kink_distance,
    numeric_gradients,
    relative_error,
)


# -- 1: analytic gradients vs central finite differences --------------------

GRAD_FAMILIES = {
    "(6)-(3)-(6*)": ("dense", "relu"),
    "(5)-(5*)": ("dense", "relu"),
    "BTN-(6)-(3)-(6*)-BTN*": ("dense", "relu", "btn", "btn_reverse"),
    "BN-(6)-(3)-(6*)-BN*": ("dense", "relu", "bn"),
    "(6)-BN-(3)-BN*-(6*)": ("dense", "relu", "bn"),
    "BTN-(5)-BN-(3)-BN*-(5*)-BTN*": ("dense", "relu", "bn", "btn",
                                     "btn_reverse"),
    "PCA-network (3)": ("dense",),
    "PCA-network (3) with BTN": ("dense", "btn", "btn_reverse"),
}


def _grad_case(arch, seed, steps=4, feats=2, batch=3):
    """A small random network with every pre-activation clear of zero.

    Exact ReLU kinks really occur (zero-init biases + an all-negative
    bottleneck row), and central differences straddle them; draws too close
    to a kink are resampled.
    """
    for attempt in range(20):
        rng = np.random.default_rng((seed, attempt))
        net = build_network(parse_architecture(arch), steps, feats, rng)
        for p in net.parameters().values():
            p += rng.normal(0.0, 0.15, p.shape)
        x = rng.normal(size=(batch, steps, feats))
        target = rng.normal(size=(batch, steps, feats))
        if min_kink_distance(net, x) > 1e-3:
            return net, x, target
    raise AssertionError(f"no kink-free draw for {arch}")


def test_criterion_1_gradient_correctness(acceptance):
    t0 = time.perf_counter()
    worst = 0.0
    per_kind = {"dense": 0, "relu": 0, "bn": 0, "btn": 0, "btn_reverse": 0}
    for arch, kinds in GRAD_FAMILIES.items():
        for seed in range(7):
            net, x, target = _grad_case(arch, seed)
            ana, d_in = analytic_gradients(net, x, target)
            num, d_in_num = numeric_gradients(net, x, target)
            worst = max(worst, relative_error(d_in, d_in_num))
            for name, g in ana.items():
                worst = max(worst, relative_error(g, num[name]))
            for kind in kinds:
                per_kind[kind] += 1
    elapsed = time.perf_counter() - t0
    enough = all(v >= 20 for v in per_kind.values())
    acceptance(1, "gradient correctness", worst < 1e-4 and enough
               and elapsed < 10.0,
               f"max rel err {worst:.2e}, configs per kind "
               f"{min(per_kind.values())}+, {elapsed:.1f}s")


# -- 2: per-window normalization leaves every series standardized -----------

def test_criterion_2_stationarization(acceptance):
    rng = np.random.default_rng(2024)
    worst_mean, worst_std = 0.0, 0.0
    for _ in range(200):
        batch = int(rng.integers(1, 9))
        steps = int(rng.integers(2, 60))
        feats = int(rng.integers(1, 7))
        scale = rng.uniform(0.5, 20.0, size=(batch, 1, feats))
        offset = rng.uniform(-1000.0, 1000.0, size=(batch, 1, feats))
        x = rng.normal(size=(batch, steps, feats)) * scale + offset
        # guard the precondition: no constant (sample, feature) series
        if np.any(x.std(axis=1) == 0.0):
            continue
        out, _ = TemporalNorm(feats).forward(x)
        worst_mean = max(worst_mean, float(np.abs(out.mean(axis=1)).max()))
        worst_std = max(worst_std, float(np.abs(out.std(axis=1) - 1.0).max()))
    acceptance(2, "per-window stationarization",
               worst_mean < 1e-9 and worst_std < 1e-4,
               f"worst |mean| {worst_mean:.1e}, worst |std-1| {worst_std:.1e}")


# -- 3: similarity and control-limit oracles --------------------------------

def _dtw_all_paths(a, b):
    """Minimum over every monotone warping path, accumulated front-to-back
    (the same addition order the dynamic program uses, so == is meaningful).
    """
    n, m = len(a), len(b)

    def walk(i, j, acc):
        acc = acc + abs(a[i] - b[j])
        if i == n - 1 and j == m - 1:
            return acc
        best = math.inf
        if i + 1 < n:
            best = min(best, walk(i + 1, j, acc))
        if j + 1 < m:
            best = min(best, walk(i, j + 1, acc))
        if i + 1 < n and j + 1 < m:
            best = min(best, walk(i + 1, j + 1, acc))
        return best

    return walk(0, 0, 0.0)


def test_criterion_3_oracle_equivalence(acceptance):
    from dbdiag import dtw_distance

    rng = np.random.default_rng(99)
    dtw_exact = True
    for _ in range(120):
        n, m = rng.integers(1, 7, size=2)
        a = np.round(rng.normal(size=n) * 3, 3)
        b = np.round(rng.normal(size=m) * 3, 3)
        if dtw_distance(a, b) != _dtw_all_paths(a, b):
            dtw_exact = False
            break

    worst_r = 0.0
    for _ in range(60):
        a = rng.normal(size=rng.integers(3, 40))
        b = rng.normal(size=len(a))
        da = a - math.fsum(a) / len(a)
        db = b - math.fsum(b) / len(b)
        direct = (math.fsum(da * db)
                  / math.sqrt(math.fsum(da * da) * math.fsum(db * db)))
        worst_r = max(worst_r, abs(pearson(a, b) - direct))

    worst_spc = 0.0
    for _ in range(60):
        scores = rng.normal(1.0, 0.3, size=rng.integers(5, 400))
        chart = fit_chart(scores, "f", k=3.0)
        n = len(scores)
        center = math.fsum(scores) / n
        sigma = math.sqrt(math.fsum((scores - center) ** 2) / (n - 1))
        worst_spc = max(worst_spc,
                        abs(chart.center - center),
                        abs(chart.sigma - sigma),
                        abs(chart.ucl - (center + 3 * sigma)),
                        abs(chart.lcl - (center - 3 * sigma)))

    acceptance(3, "oracle equivalence",
               dtw_exact and worst_r < 1e-12 and worst_spc < 1e-12,
               f"dtw exact over 120 pairs, pearson {worst_r:.1e}, "
               f"spc {worst_spc:.1e}")


# -- 4: the reported test error is the mean of the score matrix -------------

def test_criterion_4_score_aggregate_matches_trainer(acceptance, default_run,
                                                     null_run):
    worst = 0.0
    for result in (default_run.result, null_run.result):
        worst = max(worst, abs(result.test_mse
                               - float(result.test_scores.scores.mean())))
    acceptance(4, "score aggregate equals trainer MSE", worst < 1e-12,
               f"max |diff| {worst:.1e} across 2 trained models")


# -- 5: end-to-end detection on the three-injection scenario ----------------

def test_criterion_5_end_to_end_detection(acceptance, default_run):
    t0 = time.perf_counter()
    scenario = default_run.scenario
    detector = default_run.result.detector
    scores = detector.score_frame(scenario.stats)
    groups = group_periods(detect(scores, k=3.0))
    verdict = evaluate_detection(scenario.labels, groups)
    elapsed = default_run.build_seconds + (time.perf_counter() - t0)

    biggest = max(scenario.labels, key=lambda lab: lab.sigma_ratio)
    top1 = next(r for r in verdict["truths"]
                if r["label"]["feature"] == biggest.feature)
    ok = (verdict["all_hit"] and verdict["worst_rank"] is not None
          and verdict["worst_rank"] <= 3 and top1["hit_rank"] == 1
          and elapsed < 600.0)
    acceptance(5, "end-to-end detection", ok,
               f"all 3 truths hit, worst rank {verdict['worst_rank']}, "
               f"top-1 is {biggest.feature}, {elapsed:.0f}s total")


# -- 6: normalization ablation on the drifting dataset ----------------------

def _pooled_anomaly_mask(scores, labels):
    mask = np.zeros(len(scores), dtype=bool)
    for lab in labels:
        mask |= ((scores.window_starts > lab.start - scores.window_steps)
                 & (scores.window_starts < lab.end))
    return mask


def _bystander_peak_correlation(scores, scenario):
    """Max pairwise correlation between score columns of uninvolved features
    over the pooled anomaly windows.

    Injected (and coupled) features co-move with others for honest reasons:
    a large event corrupts the shared bottleneck for everyone. Bystander
    features have no such excuse, so correlated bystander scores indicate
    systematic corruption of the score series itself.
    """
    involved = {inj.feature for inj in scenario.spec.injections}
    involved |= {name for inj in scenario.spec.injections
                 for name, _ in inj.couple}
    bystanders = [f for f in scores.feature_names if f not in involved]
    sub = scores.scores[_pooled_anomaly_mask(scores, scenario.labels)]
    best = -1.0
    for i, a in enumerate(bystanders):
        for b in bystanders[i + 1:]:
            r = pearson(sub[:, scores.feature_names.index(a)],
                        sub[:, scores.feature_names.index(b)])
            if r is not None:
                best = max(best, r)
    return best


def test_criterion_6_normalization_ablation(acceptance, drift_runs):
    scenario = drift_runs.scenario
    results = drift_runs.results
    plain_r = _bystander_peak_correlation(
        results["plain"].detector.score_frame(scenario.stats), scenario)
    btn_r = _bystander_peak_correlation(
        results["btn"].detector.score_frame(scenario.stats), scenario)
    btn_mse = results["btn"].test_mse
    bn_mse = results["bn"].test_mse
    ok = (btn_mse < bn_mse) and (plain_r > 0.9) and (btn_r < 0.9)
    acceptance(6, "normalization ablation", ok,
               f"test MSE btn {btn_mse:.4f} < bn {bn_mse:.4f}; "
               f"bystander corr plain {plain_r:.3f} > 0.9 > btn {btn_r:.3f}")


# -- 7: false-alarm rate on injection-free data ------------------------------

def test_criterion_7_null_false_alarms(acceptance, null_run):
    scores = null_run.result.detector.score_frame(null_run.scenario.stats)
    n = len(scores)
    worst = 0.0
    for name, col in zip(scores.feature_names, scores.scores.T):
        chart = fit_chart(col, name, k=3.0)
        worst = max(worst, len(find_out_of_control(col, chart)) / n)
    acceptance(7, "null false-alarm rate", n >= 1000 and worst <= 0.02,
               f"worst feature {worst:.2%} of {n} windows")


# -- 8: reports are byte-reproducible ----------------------------------------

def test_criterion_8_report_determinism(acceptance, default_run, tmp_path):
    stats_csv = str(tmp_path / "stats.csv")
    events_csv = str(tmp_path / "events.csv")
    model_path = str(tmp_path / "model.json")
    write_metrics(stats_csv, default_run.scenario.stats)
    write_metrics(events_csv, default_run.scenario.events)
    save_model(default_run.result.detector, model_path)

    outs = []
    for run in ("a", "b"):
        out = str(tmp_path / f"report_{run}")
        rc = cli_main(["report", "--model", model_path, "--stats", stats_csv,
                       "--events", events_csv, "--out-dir", out, "--quiet"])
        assert rc == 0
        outs.append(out)

    def digest(path):
        return hashlib.sha256(open(path, "rb").read()).hexdigest()

    same_json = (digest(os.path.join(outs[0], "report.json"))
                 == digest(os.path.join(outs[1], "report.json")))
    charts_a = sorted(os.listdir(os.path.join(outs[0], "charts")))
    same_charts = all(
        digest(os.path.join(outs[0], "charts", n))
        == digest(os.path.join(outs[1], "charts", n)) for n in charts_a)
    acceptance(8, "report determinism", same_json and same_charts,
               "report.json and every chart byte-identical across runs")


# -- 9: the two similarity measures rank different event types first ---------

def test_criterion_9_lag_and_shape_ranking(acceptance):
    rng = np.random.default_rng(5)
    n = 40
    t0 = 27_875_520
    ts = np.arange(t0, t0 + n, dtype=np.int64)

    spike = np.zeros(n)
    u = np.linspace(0.0, 1.0, 8)
    spike[10:18] = 40.0 * np.exp(-3.0 * u)
    stat = 5.0 + spike + rng.normal(0.0, 0.3, n)

    lagged = np.zeros(n)
    lagged[2:] = spike[:-2]
    event_a = 200.0 + 50.0 * lagged + rng.normal(0.0, 0.5, n)
    event_b = 0.8 + 0.02 * (stat - 5.0) + rng.normal(0.0, 0.12, n)
    event_c = 30.0 + rng.normal(0.0, 3.0, n)
    event_d = np.full(n, 12.0)

    stat_frame = MetricFrame(("sessions",), ts, stat.reshape(-1, 1))
    event_frame = MetricFrame(
        ("lagged_copy", "shape_copy", "noise", "flatline"), ts,
        np.column_stack([event_a, event_b, event_c, event_d]), kind="event")

    matches = {m.event: m for m in match_events(
        stat_frame, "sessions", event_frame, int(ts[0]), int(ts[-1]) + 1)}
    ok = (matches["lagged_copy"].rank_dtw == 1
          and matches["shape_copy"].rank_correlation == 1
          and matches["lagged_copy"].rank_correlation > 1
          and matches["shape_copy"].rank_dtw > 1)
    acceptance(9, "lagged vs shape-copy ranking", ok,
               f"dtw winner lagged_copy ({matches['lagged_copy'].dtw:.2f} vs "
               f"{matches['shape_copy'].dtw:.2f}), correlation winner "
               f"shape_copy ({matches['shape_copy'].correlation:.2f} vs "
               f"{matches['lagged_copy'].correlation:.2f})")
