import dataclasses

import numpy as np
import pytest

import blueskylab.conditions as conditions
from blueskylab import (
    CaseMismatch,
    CaseTag,
    FourierSeries as F,
    Inconclusive,
    case_for_degree,
    certified_angular_expansion,
    check_case,
    criterion_function,
    validate_config,
)

from helpers import random_config, uncoupled_config

TWO_PI = 2.0 * np.pi


def test_case_for_degree():
    assert case_for_degree(0) is CaseTag.BLUE_SKY
    assert case_for_degree(1) is CaseTag.TORUS_OR_KLEIN
    assert case_for_degree(-1) is CaseTag.TORUS_OR_KLEIN
    assert case_for_degree(2) is CaseTag.SOLENOID
    assert case_for_degree(-5) is CaseTag.SOLENOID


def test_criterion_zero_for_constant_profiles():
    model = validate_config(uncoupled_config(m=0))
    th = np.linspace(0.0, TWO_PI, 101)
    assert np.all(criterion_function(th, model) == 0.0)


def test_criterion_exact_differentiation():
    model = validate_config(uncoupled_config(m=0, h=F(0.0, (), (0.3,))))
    th = np.linspace(0.0, TWO_PI, 101)
    assert np.allclose(criterion_function(th, model), 0.3 * np.cos(th), atol=1e-14)


def test_criterion_max_against_dense_grid_oracle():
    model = validate_config(uncoupled_config(m=0, gamma=1.0, alpha=F(1.0, (0.5,), ())))
    th = np.linspace(0.0, TWO_PI, 10 ** 6, endpoint=False)
    oracle = float(np.max(np.abs(criterion_function(th, model))))
    assert oracle == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-9)
    report = check_case(CaseTag.BLUE_SKY, model)
    assert report.verdict
    assert max(abs(report.criterion_min), abs(report.criterion_max)) \
        == pytest.approx(oracle, abs=1e-6)


def test_check_case_trivial_margin_one():
    model = validate_config(uncoupled_config(m=0))
    report = check_case(CaseTag.BLUE_SKY, model)
    assert report.verdict is True
    assert report.criterion_max == 0.0
    assert report.criterion_min == 0.0
    assert report.margin == 1.0


def test_check_case_torus_condition_value():
    model = validate_config(uncoupled_config(m=1, gamma=1.0, alpha=F(1.0, (0.5,), ())))
    report = check_case(CaseTag.TORUS_OR_KLEIN, model)
    assert report.verdict is True
    assert report.criterion_min == pytest.approx(1.0 - 1.0 / np.sqrt(3.0), abs=1e-6)


def test_check_case_solenoid_condition_value():
    model = validate_config(
        uncoupled_config(m=2, n=4, gamma=1.0, lam=1.7, beta=3.0, h=F(0.0, (), (0.3,))))
    report = check_case(CaseTag.SOLENOID, model)
    assert report.verdict is True
    assert report.criterion_min == pytest.approx(1.7, abs=1e-12)
    assert report.margin == pytest.approx(0.7, abs=1e-3)


def test_criterion_scale_invariance_bitwise():
    base = uncoupled_config(m=0, gamma=1.3, alpha=F(1.0, (0.4, 0.1), (0.2,)),
                            h=F(0.0, (0.1,), (0.3,)))
    ref = check_case(CaseTag.BLUE_SKY, validate_config(base))
    for c in (0.5, 2.0):
        scaled = uncoupled_config(m=0, gamma=1.3, alpha=base.alpha.scaled(c),
                                  h=base.h)
        rep = check_case(CaseTag.BLUE_SKY, validate_config(scaled))
        assert rep.criterion_min == ref.criterion_min
        assert rep.criterion_max == ref.criterion_max


def test_threshold_sharpness():
    def model_at(a):
        return validate_config(uncoupled_config(m=0, h=F(0.0, (), (a,))))

    assert check_case(CaseTag.BLUE_SKY, model_at(0.99)).verdict is True
    assert check_case(CaseTag.BLUE_SKY, model_at(1.01)).verdict is False
    with pytest.raises(Inconclusive):
        check_case(CaseTag.BLUE_SKY, model_at(1.0))


def test_case_mismatch():
    model = validate_config(uncoupled_config(m=0))
    with pytest.raises(CaseMismatch):
        check_case(CaseTag.SOLENOID, model)
    with pytest.raises(CaseMismatch):
        check_case(CaseTag.TORUS_OR_KLEIN, model)


def test_certification_soundness_on_finer_grid():
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 8:
        model = validate_config(random_config(rng, coupling_scale=0.0))
        tag = case_for_degree(model.m)
        try:
            report = check_case(tag, model)
        except Inconclusive:
            continue
        if not report.verdict:
            continue
        checked += 1
        th = np.arange(10 * report.grid_size) * (TWO_PI / (10 * report.grid_size))
        s = criterion_function(th, model)
        if tag is CaseTag.BLUE_SKY:
            assert np.max(np.abs(s)) < 1.0
        elif tag is CaseTag.TORUS_OR_KLEIN:
            assert np.min(1.0 + model.m * s) > 0.0
        else:
            assert np.min(np.abs(model.m + s)) > 1.0


def test_certified_angular_expansion_value():
    model = validate_config(
        uncoupled_config(m=2, n=4, gamma=1.0, lam=1.7, beta=3.0, h=F(0.0, (), (0.3,))))
    bound = certified_angular_expansion(model)
    assert 1.69 <= bound <= 1.7


def test_report_serialization_fields():
    model = validate_config(uncoupled_config(m=0))
    payload = check_case(CaseTag.BLUE_SKY, model).to_dict()
    assert set(payload) == {"case_tag", "criterion_min", "criterion_max",
                            "margin", "verdict", "grid_size", "lipschitz_bound"}
    assert payload["case_tag"] == "BlueSky"


@pytest.fixture
def criterion_calls(monkeypatch):
    """Counts the grid evaluations of the criterion function."""
    calls = []
    original = conditions.criterion_function

    def counted(theta, model):
        calls.append(np.size(theta))
        return original(theta, model)

    monkeypatch.setattr(conditions, "criterion_function", counted)
    return calls


def test_mu_free_conditions_are_computed_once_per_model(criterion_calls):
    model = validate_config(
        uncoupled_config(m=2, n=4, gamma=1.0, lam=1.7, beta=3.0, h=F(0.0, (), (0.3,))))
    report = check_case(CaseTag.SOLENOID, model)
    bound = certified_angular_expansion(model)
    sups = model.coupling_sup_bounds()
    evaluations = len(criterion_calls)
    assert check_case(CaseTag.SOLENOID, model) is report
    assert certified_angular_expansion(model) == bound
    assert model.coupling_sup_bounds() is sups
    assert len(criterion_calls) == evaluations
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.margin = 0.0


def test_cached_inconclusive_is_raised_afresh(criterion_calls):
    model = validate_config(uncoupled_config(m=0, h=F(0.0, (), (1.0,))))
    with pytest.raises(Inconclusive) as first:
        check_case(CaseTag.BLUE_SKY, model)
    evaluations = len(criterion_calls)
    with pytest.raises(Inconclusive) as second:
        check_case(CaseTag.BLUE_SKY, model)
    assert len(criterion_calls) == evaluations
    assert second.value is not first.value
    for name in ("case_tag", "raw_margin", "inflation", "grid_size"):
        assert getattr(second.value, name) == getattr(first.value, name)

