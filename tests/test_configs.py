"""Specs and configs are checked when they are made, so a field of the wrong
JSON type, or a number too large for a float, is refused by the library
constructor, not first by JSON reading or deep inside generation or training."""

import pytest

from dbdiag import Injection, ReportConfig, ScenarioSpec, TrainConfig
from dbdiag.errors import ConfigError


@pytest.mark.parametrize("make, message", [
    (lambda: ScenarioSpec(seed=3.9), "seed must be an integer, got 3.9"),
    (lambda: ScenarioSpec(seed=True), "seed must be an integer, got True"),
    (lambda: Injection("spike", "cpu_used", 1.5, 5, 1.0),
     "injection offset must be an integer, got 1.5"),
    (lambda: TrainConfig(seed=3.9), "seed must be an integer, got 3.9"),
    (lambda: TrainConfig(batch_size=True), "batch_size must be an integer, got True"),
    (lambda: ReportConfig(top_periods=2.5), "top_periods must be an integer, got 2.5"),
    (lambda: ReportConfig(sigma_k=True), "sigma_k must be a number, got True"),
    (lambda: TrainConfig(learning_rate=10**400),
     f"learning_rate must be finite and positive, got {10**400}"),
    (lambda: ReportConfig(sigma_k=10**400),
     f"sigma_k must be finite and positive, got {10**400}"),
], ids=["spec_float_seed", "spec_boolean_seed", "injection_float_offset",
        "train_float_seed", "train_boolean_batch_size", "report_float_top_periods",
        "report_boolean_sigma_k", "train_overlong_learning_rate",
        "report_overlong_sigma_k"])
def test_a_bad_field_is_refused_when_made(make, message):
    with pytest.raises(ConfigError) as caught:
        make()
    assert str(caught.value) == message
