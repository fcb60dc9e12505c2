"""Parameter sweeps and scaling-law measurements.

The signature observable of the bifurcation is the blow-up of the return
time: the passage time through the linear-flow neighborhood grows like
(1/gamma) ln(1/mu) as the splitting parameter mu -> 0+, while the excursion
outside stays bounded.  ``mu_sweep`` classifies the attractor along a mu
grid and records a period proxy (flight time plus a unit global transit
constant); ``fit_period_scaling`` recovers 1/gamma from its slope against
ln(1/mu).  ``threshold_study`` bisects the verdict flip of a case condition
along a one-parameter family of profiles.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .analysis import AttractorLabel, classify_attractor, classify_attractors
from .conditions import CaseMismatch, CaseTag, Inconclusive, case_for_degree, check_case
from .model import EscapedTube, ValidatedModel, require_count, require_mu

__all__ = [
    "GLOBAL_TRANSIT_TIME",
    "InsufficientData",
    "ScalingFit",
    "SweepRecord",
    "ThresholdRow",
    "ThresholdStudy",
    "fit_period_scaling",
    "geometric_mu_grid",
    "mu_sweep",
    "sweep_csv_text",
    "threshold_study",
    "write_sweep_csv",
]

GLOBAL_TRANSIT_TIME = 1.0   # bounded time of the excursion outside the linear neighborhood

CSV_HEADER = ["mu", "classification", "period_proxy", "theta_fixed", "top_lyapunov", "escaped"]


class InsufficientData(ValueError):
    """Not enough usable records for a scaling fit."""


@dataclass
class SweepRecord:
    mu: float
    classification: str
    period_proxy: float
    theta_at_fixed_point: float | None
    top_lyapunov: float | None
    escape_flag: bool


@dataclass
class ScalingFit:
    """Least-squares line of period_proxy against ln(1/mu)."""

    slope: float
    intercept: float
    r_squared: float
    mu_range: tuple[float, float]
    points: int

    def to_dict(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "mu_min": self.mu_range[0],
            "mu_max": self.mu_range[1],
            "points": self.points,
        }


def geometric_mu_grid(mu_min: float, mu_max: float, per_decade: int = 10) -> np.ndarray:
    """Geometric mu grid, descending, ``per_decade`` (>= 1) points per decade."""
    if not require_mu(mu_min) < require_mu(mu_max):
        raise ValueError("need 0 < mu_min < mu_max")
    require_count("per_decade", per_decade, 1)
    decades = np.log10(mu_max / mu_min)
    count = max(2, int(round(decades * per_decade)) + 1)
    return np.geomspace(mu_max, mu_min, count)


def _orbit_mean_flights(model: ValidatedModel, mus: np.ndarray) -> np.ndarray:
    """Flight time averaged over 256 returns, after 64 transient returns,
    along the orbit of the limit-curve point at angle 0.5, at every mu of
    ``mus`` in one ``advance`` (NaN where the orbit escapes)."""
    X, Y, th, _ = model.advance(*model.limit_points(np.full(len(mus), 0.5)), mus, 64)
    return model.advance(X, Y, th, mus, 256)[3] / 256


def mu_sweep(model: ValidatedModel, mu_values: Sequence[float]) -> list[SweepRecord]:
    """Classify the attractor at each mu and record the period proxy.

    For the stable-orbit regime the proxy is the fixed point's flight time
    plus the global transit constant, and ``top_lyapunov`` is the largest
    log-multiplier; otherwise the orbit-averaged flight time is used and
    ``top_lyapunov`` is None.  The rows are solved together: the mu-free
    case condition once (``classify_attractors``), every m = 0 fixed point
    in one batched Newton solve, and every orbit average in one batched
    ``advance`` (one state check each).  At |m| >= 2 the orbit average runs
    along a chaotic orbit, so it reproduces only to about 1e-3 relative
    under last-bit changes of the arithmetic (repeated runs on one machine
    stay bit-identical).
    Escapes are flagged per record and never abort the sweep; raises
    ValueError if any mu is not finite and positive.
    """
    mus = require_mu(np.array([float(mu) for mu in mu_values]))
    if not mus.size:
        return []
    rows = classify_attractors(model, mus)
    orbit = [i for i, rec in enumerate(rows)
             if not isinstance(rec, EscapedTube) and rec.fixed_point is None]
    flights = np.full(mus.size, np.nan)         # NaN stays on every escaped row
    if orbit:
        flights[orbit] = _orbit_mean_flights(model, mus[orbit])
    records: list[SweepRecord] = []
    for mu, rec, flight in zip(mus.tolist(), rows, flights.tolist()):
        fp = None if isinstance(rec, EscapedTube) else rec.fixed_point
        if fp is None and np.isnan(flight):
            records.append(SweepRecord(
                mu=mu, classification="Escaped", period_proxy=float("nan"),
                theta_at_fixed_point=None, top_lyapunov=None, escape_flag=True,
            ))
            continue
        theta_fp = top = None
        if fp is not None:
            theta_fp, flight = fp.point.theta, fp.flight
            moduli = np.abs(fp.multipliers)
            with np.errstate(divide="ignore"):
                top = float(np.max(np.log(moduli))) if moduli.size else None
        records.append(SweepRecord(
            mu=mu,
            classification=rec.label.value,
            period_proxy=flight + GLOBAL_TRANSIT_TIME,
            theta_at_fixed_point=theta_fp,
            top_lyapunov=top,
            escape_flag=False,
        ))
    return records


def fit_period_scaling(records: Sequence[SweepRecord]) -> ScalingFit:
    """Fit period_proxy = slope * ln(1/mu) + intercept over the stable-orbit records.

    Requires at least 4 non-escaped stable-orbit records spanning at least
    3 decades of mu; the slope estimates 1/gamma.
    """
    usable = [r for r in records
              if not r.escape_flag
              and r.classification == AttractorLabel.STABLE_PERIODIC_ORBIT.value]
    if len(usable) < 4:
        raise InsufficientData(f"need >= 4 stable-orbit records, have {len(usable)}")
    mus = np.array([r.mu for r in usable])
    if np.max(mus) / np.min(mus) < 1e3:
        raise InsufficientData("records span fewer than 3 decades of mu")
    x = np.log(1.0 / mus)
    y = np.array([r.period_proxy for r in usable])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0.0 else 1.0
    return ScalingFit(
        slope=float(slope), intercept=float(intercept), r_squared=r2,
        mu_range=(float(np.min(mus)), float(np.max(mus))), points=len(usable),
    )


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    raise TypeError(f"a sweep CSV cell is None, a bool or a float, got {type(value).__name__}")


def sweep_csv_text(records: Sequence[SweepRecord]) -> str:
    """Deterministic CSV serialization (shortest round-trip float repr)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in records:
        writer.writerow([
            _format_cell(r.mu),
            r.classification,
            _format_cell(r.period_proxy),
            _format_cell(r.theta_at_fixed_point),
            _format_cell(r.top_lyapunov),
            _format_cell(r.escape_flag),
        ])
    return buf.getvalue()


def write_sweep_csv(records: Sequence[SweepRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(sweep_csv_text(records))


@dataclass
class ThresholdRow:
    a: float
    outcome: str                 # "true" | "false" | "inconclusive"
    margin: float | None
    classification: str | None


@dataclass
class ThresholdStudy:
    rows: list[ThresholdRow]
    flip: float | None           # bisection estimate of the verdict flip
    bracket: tuple[float, float] | None


def _condition_outcome(model: ValidatedModel, case_tag: CaseTag) -> tuple[str, float | None]:
    if case_tag is not case_for_degree(model.m):
        raise CaseMismatch(f"{case_tag.value} is inconsistent with degree m={model.m}")
    try:
        report = check_case(model)
    except Inconclusive:
        return "inconclusive", None
    return ("true" if report.verdict else "false"), report.margin


def threshold_study(family: Callable[[float], ValidatedModel], case_tag: CaseTag,
                    a_values: Sequence[float], *, mu: float | None = None) -> ThresholdStudy:
    """Locate the condition-verdict flip along a one-parameter model family.

    Tabulates the condition outcome (and, when ``mu`` is given, the
    attractor classification) at each ``a``, then bisects, to a bracket
    narrower than 1e-6, the boundary of definite falsification: the
    smallest ``a`` at which some sampled angle violates the strict
    inequality.  Near the analytic threshold the certified-true region
    may stop an inflation-width early, so the falsification edge is the
    sharp locator.  Raises CaseMismatch at the first family member whose
    degree m does not pick ``case_tag`` (``case_for_degree``).
    """
    case_tag = CaseTag(case_tag)
    rows: list[ThresholdRow] = []
    for a in a_values:
        model = family(a)
        outcome, margin = _condition_outcome(model, case_tag)
        label = None
        if mu is not None:
            label = classify_attractor(model, mu).label.value
        rows.append(ThresholdRow(float(a), outcome, margin, label))

    lo = hi = None
    for row in rows:
        if row.outcome != "false":
            lo = row.a if lo is None else max(lo, row.a)
        else:
            hi = row.a if hi is None else min(hi, row.a)
    if lo is None or hi is None or lo >= hi:
        return ThresholdStudy(rows, None, None)

    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        outcome, _ = _condition_outcome(family(mid), case_tag)
        if outcome == "false":
            hi = mid
        else:
            lo = mid
    return ThresholdStudy(rows, 0.5 * (lo + hi), (lo, hi))
