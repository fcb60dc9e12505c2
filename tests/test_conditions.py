import dataclasses
import json
import tracemalloc

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
    parse_config,
    threshold_study,
    validate_config,
)
from blueskylab.fourier import lipschitz_grid_extrema

from helpers import CONFIG_DIR, demo_model, random_config, uncoupled_config

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


def test_criterion_matches_a_direct_sum():
    """The criterion's (alpha, h) bank rows, checked against cos/sin sums."""

    def direct(f, th):
        k = np.arange(1, f.degree + 1)[:, None]
        a = np.zeros(f.degree)
        b = np.zeros(f.degree)
        a[: len(f.cosine_coeffs)] = f.cosine_coeffs
        b[: len(f.sine_coeffs)] = f.sine_coeffs
        return f.constant_term + a @ np.cos(k * th) + b @ np.sin(k * th)

    rng = np.random.default_rng(23)
    for _ in range(6):
        model = validate_config(random_config(rng))
        alpha, h = model.cfg.alpha, model.cfg.h
        th = rng.uniform(-TWO_PI, 2.0 * TWO_PI, 257)
        want = direct(h.deriv(), th) - direct(alpha.deriv(), th) / (model.gamma * direct(alpha, th))
        got = criterion_function(th, model)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
        assert criterion_function(th[5], model) == pytest.approx(got[5], rel=1e-15, abs=1e-15)


def test_criterion_max_against_dense_grid_oracle():
    model = validate_config(uncoupled_config(m=0, gamma=1.0, alpha=F(1.0, (0.5,), ())))
    th = np.linspace(0.0, TWO_PI, 10 ** 6, endpoint=False)
    oracle = float(np.max(np.abs(criterion_function(th, model))))
    assert oracle == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-9)
    report = check_case(model)
    assert report.verdict
    assert max(abs(report.criterion_min), abs(report.criterion_max)) \
        == pytest.approx(oracle, abs=1e-6)


def test_check_case_trivial_margin_one():
    model = validate_config(uncoupled_config(m=0))
    report = check_case(model)
    assert report.verdict is True
    assert report.criterion_max == 0.0
    assert report.criterion_min == 0.0
    assert report.margin == 1.0


def test_check_case_torus_condition_value():
    model = validate_config(uncoupled_config(m=1, gamma=1.0, alpha=F(1.0, (0.5,), ())))
    report = check_case(model)
    assert report.verdict is True
    assert report.criterion_min == pytest.approx(1.0 - 1.0 / np.sqrt(3.0), abs=1e-6)


def test_check_case_solenoid_condition_value():
    model = validate_config(
        uncoupled_config(m=2, n=4, gamma=1.0, lam=1.7, beta=3.0, h=F(0.0, (), (0.3,))))
    report = check_case(model)
    assert report.verdict is True
    assert report.criterion_min == pytest.approx(1.7, abs=1e-12)
    assert report.margin == pytest.approx(0.7, abs=1e-3)


def test_criterion_scale_invariance_bitwise():
    base = uncoupled_config(m=0, gamma=1.3, alpha=F(1.0, (0.4, 0.1), (0.2,)),
                            h=F(0.0, (0.1,), (0.3,)))
    ref = check_case(validate_config(base))
    for c in (0.5, 2.0):
        scaled = uncoupled_config(m=0, gamma=1.3, alpha=base.alpha.scaled(c),
                                  h=base.h)
        rep = check_case(validate_config(scaled))
        assert rep.criterion_min == ref.criterion_min
        assert rep.criterion_max == ref.criterion_max


def test_threshold_sharpness():
    def model_at(a):
        return validate_config(uncoupled_config(m=0, h=F(0.0, (), (a,))))

    assert check_case(model_at(0.99)).verdict is True
    assert check_case(model_at(1.01)).verdict is False
    with pytest.raises(Inconclusive):
        check_case(model_at(1.0))


def test_case_mismatch():
    """check_case reads its case off m; threshold_study checks the tag it is
    given against the degree of every family member it builds."""
    model = validate_config(uncoupled_config(m=0))
    assert check_case(model).case_tag is CaseTag.BLUE_SKY
    for tag in (CaseTag.SOLENOID, CaseTag.TORUS_OR_KLEIN):
        with pytest.raises(CaseMismatch):
            threshold_study(lambda a: model, tag, [0.5])

    def family(a):
        return validate_config(uncoupled_config(m=0 if a < 1.0 else 2, n=4,
                                                h=F(0.0, (), (a,))))

    with pytest.raises(CaseMismatch, match="m=2"):
        threshold_study(family, CaseTag.BLUE_SKY, [0.5, 1.5])


def test_certification_soundness_on_finer_grid():
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 8:
        model = validate_config(random_config(rng, coupling_scale=0.0))
        try:
            report = check_case(model)
        except Inconclusive:
            continue
        tag = report.case_tag
        assert tag is case_for_degree(model.m)
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


def test_grid_cap_evaluation_runs_in_bounded_memory():
    """Demo 04's stable-orbit family at a = 0.999999 (margin 1e-6) doubles
    its grid to the cap of 2^20 angles; the grid is evaluated in blocks, so
    the peak stays far below one full-grid array (8 MB)."""
    model = validate_config(uncoupled_config(m=0, gamma=1.0, lam=2.0, beta=3.5,
                                             h=F(0.0, (), (0.999999,))))
    tracemalloc.start()
    try:
        with pytest.raises(Inconclusive) as err:
            check_case(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert err.value.grid_size == 2 ** 20
    assert peak < 4 * 2 ** 20


def test_certified_angular_expansion_value():
    model = validate_config(
        uncoupled_config(m=2, n=4, gamma=1.0, lam=1.7, beta=3.0, h=F(0.0, (), (0.3,))))
    bound = certified_angular_expansion(model)
    assert 1.69 <= bound <= 1.7


def test_report_serialization_fields():
    model = validate_config(uncoupled_config(m=0))
    payload = check_case(model).to_dict()
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
    report = check_case(model)
    bound = certified_angular_expansion(model)
    evaluations = len(criterion_calls)
    assert check_case(model) is report
    assert certified_angular_expansion(model) == bound
    assert len(criterion_calls) == evaluations
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.margin = 0.0


def _high_n_m2():
    """demo_m2 extended to n = 7 with small strong-stable couplings, built
    like the benchmark's ``high_n_m2``."""
    data = json.loads((CONFIG_DIR / "demo_m2.json").read_text())
    rng = np.random.default_rng(7)
    for _ in range(7 - data["n"]):
        data["coupling_fy"].append({"constant": rng.uniform(3e-4, 1e-3),
                                    "sin": [rng.uniform(-1e-3, 1e-3)]})
        data["coupling_hy"].append({"constant": rng.uniform(3e-4, 1e-3),
                                    "cos": [rng.uniform(-4e-4, 4e-4)]})
        data["g0"].append({"constant": rng.uniform(-0.05, 0.05),
                           "sin": [rng.uniform(-0.03, 0.03)]})
    data["n"] = 7
    return validate_config(parse_config(data))


@pytest.mark.parametrize("build", [lambda: demo_model("demo_m2"), _high_n_m2,
                                   lambda: demo_model("demo_m1"), lambda: demo_model("demo_m-1")],
                         ids=["demo_m2", "high_n_m2", "demo_m1", "demo_m-1"])
def test_expansion_is_read_off_the_case_report(criterion_calls, build):
    """No grid loop of its own: after check_case the expansion evaluates the
    criterion nowhere, and equals both the report's certified minimum and
    the stand-alone certified loop over |m + s| bit for bit (at |m| = 1,
    where 1 + m*s > 0, the two criteria agree bit for bit)."""
    model = build()
    report = check_case(model)
    evaluations = len(criterion_calls)
    bound = certified_angular_expansion(model)
    assert len(criterion_calls) == evaluations
    assert bound == report.criterion_min - report.lipschitz_bound * np.pi / report.grid_size
    vmin, _, _, inflation, _ = lipschitz_grid_extrema(
        lambda theta: np.abs(model.m + criterion_function(theta, model)),
        conditions.criterion_lipschitz(model))
    assert bound == vmin - inflation


def test_expansion_is_undecided_where_the_case_is():
    """At a = 1 the solenoid margin min|2 + a cos| - 1 is exactly 0: the
    expansion raises Inconclusive, as check_case does; m = 0 has none."""
    model = validate_config(
        uncoupled_config(m=2, n=4, gamma=1.0, lam=1.7, beta=3.0, h=F(0.0, (), (1.0,))))
    with pytest.raises(Inconclusive) as err:
        certified_angular_expansion(model)
    assert err.value.raw_margin == 0.0 and err.value.grid_size == 2 ** 20
    with pytest.raises(CaseMismatch):
        certified_angular_expansion(validate_config(uncoupled_config(m=0)))


def test_grid_cap_case_evaluates_the_cap_grid_once(criterion_calls):
    """At a = 1 the margin is exactly 0, so the grid doubles to the cap; the
    nested refinement evaluates the criterion at 2^20 angles in all."""
    model = validate_config(uncoupled_config(m=0, h=F(0.0, (), (1.0,))))
    with pytest.raises(Inconclusive) as err:
        check_case(model)
    assert err.value.raw_margin == 0.0
    assert err.value.grid_size == 2 ** 20
    assert err.value.inflation == conditions.criterion_lipschitz(model) * np.pi / 2 ** 20
    assert sum(criterion_calls) == 2 ** 20


def test_cached_inconclusive_is_raised_afresh(criterion_calls):
    model = validate_config(uncoupled_config(m=0, h=F(0.0, (), (1.0,))))
    with pytest.raises(Inconclusive) as first:
        check_case(model)
    evaluations = len(criterion_calls)
    with pytest.raises(Inconclusive) as second:
        check_case(model)
    assert len(criterion_calls) == evaluations
    assert second.value is not first.value
    for name in ("case_tag", "raw_margin", "inflation", "grid_size"):
        assert getattr(second.value, name) == getattr(first.value, name)

