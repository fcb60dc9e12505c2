import numpy as np
import pytest

from blueskylab import (
    CaseTag,
    FourierSeries as F,
    InsufficientData,
    fit_period_scaling,
    geometric_mu_grid,
    mu_sweep,
    sweep_csv_text,
    threshold_study,
    validate_config,
    write_sweep_csv,
)
from blueskylab.experiments import CSV_HEADER

from helpers import coupled_config, demo_model, uncoupled_config


def test_geometric_grid_descending():
    grid = geometric_mu_grid(1e-6, 1e-3)
    assert grid[0] == pytest.approx(1e-3)
    assert grid[-1] == pytest.approx(1e-6)
    assert np.all(np.diff(grid) < 0.0)
    assert len(grid) == 31
    with pytest.raises(ValueError):
        geometric_mu_grid(1e-3, 1e-6)


def test_closed_form_period_proxy():
    model = validate_config(uncoupled_config(m=0, gamma=1.0, lam=2.0, beta=3.0, d=1.0))
    mus = geometric_mu_grid(1e-8, 1e-3, per_decade=4)
    records = mu_sweep(model, mus)
    for record in records:
        assert record.classification == "StablePeriodicOrbit"
        assert record.period_proxy == pytest.approx(np.log(1.0 / record.mu) + 1.0, abs=1e-9)
        assert record.theta_at_fixed_point is not None
    # strictly increasing as mu decreases
    periods = [r.period_proxy for r in records]
    assert np.all(np.diff(periods) > 0.0)
    fit = fit_period_scaling(records)
    assert fit.slope == pytest.approx(1.0, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_closed_form_slope_gamma_two():
    model = validate_config(uncoupled_config(m=0, gamma=2.0, lam=4.5, beta=10.0, d=1.0))
    records = mu_sweep(model, geometric_mu_grid(1e-8, 1e-3, per_decade=4))
    fit = fit_period_scaling(records)
    assert fit.slope == pytest.approx(0.5, abs=1e-9)


def test_coupled_slope_within_two_percent():
    gamma = 1.3
    model = validate_config(coupled_config(m=0, gamma=gamma, lam=2.0 * gamma,
                                           alpha=F(1.0, (0.15,), ()),
                                           h=F(0.0, (), (0.1,))))
    records = mu_sweep(model, geometric_mu_grid(1e-8, 1e-3))
    fit = fit_period_scaling(records)
    assert abs(fit.slope - 1.0 / gamma) <= 0.02 / gamma
    assert fit.points == len(records)


def test_solenoid_sweep_classification_constant():
    model = demo_model("demo_m2")
    records = mu_sweep(model, geometric_mu_grid(1e-7, 1e-4, per_decade=2))
    assert all(r.classification == "Solenoid" for r in records)
    assert all(r.period_proxy > 0.0 for r in records)
    assert all(r.top_lyapunov is None for r in records)


def test_escape_flag_does_not_abort():
    cfg = uncoupled_config(m=0, gamma=1.0, lam=1.5, beta=3.0)
    cfg.coupling_fx = F.constant(-4.0)
    model = validate_config(cfg)
    records = mu_sweep(model, [0.9, 1e-6])
    assert records[0].escape_flag and records[0].classification == "Escaped"
    assert not records[1].escape_flag


def test_fit_requires_enough_records():
    model = validate_config(uncoupled_config(m=0))
    with pytest.raises(InsufficientData):
        fit_period_scaling(mu_sweep(model, [1e-4, 1e-5, 1e-6]))
    with pytest.raises(InsufficientData):
        fit_period_scaling(mu_sweep(model, [1e-4, 2e-4, 3e-4, 4e-4, 5e-4]))


def test_csv_shape_and_determinism(tmp_path):
    model = demo_model("demo_m0")
    records = mu_sweep(model, geometric_mu_grid(1e-6, 1e-4, per_decade=3))
    text = sweep_csv_text(records)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == len(records) + 1
    assert text == sweep_csv_text(mu_sweep(model, geometric_mu_grid(1e-6, 1e-4, per_decade=3)))
    out = tmp_path / "sweep.csv"
    write_sweep_csv(records, out)
    assert out.read_text(encoding="utf-8") == text
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(1e-4)
    assert first[-1] == "false"


def test_threshold_flip_blue_sky():
    def family(a):
        return validate_config(uncoupled_config(m=0, h=F(0.0, (), (a,))))

    study = threshold_study(family, CaseTag.BLUE_SKY, [0.3, 0.7, 1.3])
    assert study.flip == pytest.approx(1.0, abs=1e-6)
    row = study.rows[0]
    assert row.outcome == "true"
    assert row.margin == pytest.approx(0.7, abs=1e-3)
    assert study.rows[-1].outcome == "false"


def test_threshold_flip_solenoid():
    def family(a):
        return validate_config(
            uncoupled_config(m=2, n=4, gamma=1.0, lam=1.7, beta=3.0, h=F(0.0, (), (a,))))

    study = threshold_study(family, CaseTag.SOLENOID, [0.5, 1.5])
    assert study.flip == pytest.approx(1.0, abs=1e-6)


def test_threshold_with_classification_column():
    def family(a):
        return validate_config(uncoupled_config(m=0, h=F(0.0, (), (a,))))

    study = threshold_study(family, CaseTag.BLUE_SKY, [0.5, 1.5], mu=1e-5)
    assert study.rows[0].classification == "StablePeriodicOrbit"
    assert study.rows[1].classification == "Indeterminate"


def test_threshold_builds_one_model_per_value():
    calls = []

    def family(a):
        calls.append(a)
        return validate_config(uncoupled_config(m=0, h=F(0.0, (), (a,))))

    # 3 tabulated values, each classified on the model its condition used,
    # then 20 bisection steps
    threshold_study(family, CaseTag.BLUE_SKY, [0.5, 0.9, 1.5], mu=1e-5)
    assert len(calls) == 23


def test_threshold_no_bracket():
    def family(a):
        return validate_config(uncoupled_config(m=0, h=F(0.0, (), (a,))))

    study = threshold_study(family, CaseTag.BLUE_SKY, [0.1, 0.2])
    assert study.flip is None


@pytest.mark.parametrize("per_decade", [0, -2, 2.5])
def test_geometric_grid_count_rule(per_decade):
    with pytest.raises(ValueError, match="per_decade"):
        geometric_mu_grid(1e-6, 1e-3, per_decade)
