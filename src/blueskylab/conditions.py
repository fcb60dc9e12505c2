"""Certified verification of the degree-trichotomy hypotheses.

Everything here revolves around the criterion function

    s(theta) = h'(theta) - alpha'(theta) / (gamma * alpha(theta)),

the splitting-profile log-derivative correction to the angular shift.
The three regimes are certified through it:

    degree m = 0   : sup |s| < 1          -> a single stable periodic orbit,
    degree |m| = 1 : 1 + m*s > 0 on the circle -> invariant torus / Klein bottle,
    degree |m| >= 2: inf |m + s| > 1      -> expanding circle factor (solenoid).

Certification is a uniform grid evaluation inflated by a global Lipschitz
bound of the criterion, computed from the Fourier coefficient sums of the
derivative series and the certified positive lower bound of alpha.  The
grid doubles while the margin is smaller than the inflation, each doubling
evaluating only the new midpoints; exact trigonometric polynomials make
this fully rigorous without interval arithmetic.  The verdict is
``fourier.lipschitz_grid_extrema``'s strict rule: False for a grid margin
< 0, True for a margin above the inflation, and ``Inconclusive`` at the
grid cap, so a margin of exactly 0 is never decided.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .fourier import SeriesBank, lipschitz_grid_extrema
from .model import Undecided, ValidatedModel

__all__ = [
    "CaseMismatch",
    "CaseTag",
    "ConditionReport",
    "Inconclusive",
    "case_for_degree",
    "certified_angular_expansion",
    "check_case",
    "criterion_function",
    "criterion_lipschitz",
]


class CaseTag(Enum):
    BLUE_SKY = "BlueSky"
    TORUS_OR_KLEIN = "TorusOrKlein"
    SOLENOID = "Solenoid"


class CaseMismatch(ValueError):
    """The requested case tag is inconsistent with the model's degree m."""


class Inconclusive(Undecided, RuntimeError):
    """The grid cap was reached with the margin still inside the inflation.

    Distinct from a false verdict: no violating angle was found, but the
    certified margin never became positive.  Carries the last grid data.
    A sampled certificate (the cone) has no inflation (None), and its
    ``grid_size`` counts the samples, which all pass.
    """

    def __init__(self, case_tag, raw_margin, inflation, grid_size):
        self.case_tag = case_tag
        self.raw_margin = raw_margin
        self.inflation = inflation
        self.grid_size = grid_size
        super().__init__(f"{case_tag.value}: " + (
            f"certified margin {raw_margin:.3e} fails where all {grid_size} samples pass"
            if inflation is None else
            f"margin {raw_margin:.3e} within inflation {inflation:.3e} at grid cap {grid_size}"))


@dataclass(frozen=True)
class ConditionReport:
    """Certified min/max of a case criterion over the circle.

    With a true verdict ``margin`` is the certified distance from the
    threshold, the grid margin minus the Lipschitz inflation, always > 0.
    With a false verdict it is the raw grid margin, < 0: a grid angle
    violates the strict inequality outright.  Frozen: one report is shared
    by every caller that checks the same model.
    """

    case_tag: CaseTag
    criterion_min: float
    criterion_max: float
    margin: float
    verdict: bool
    grid_size: int
    lipschitz_bound: float

    def to_dict(self) -> dict:
        return {**asdict(self), "case_tag": self.case_tag.value}


def case_for_degree(m: int) -> CaseTag:
    if m == 0:
        return CaseTag.BLUE_SKY
    if abs(m) == 1:
        return CaseTag.TORUS_OR_KLEIN
    return CaseTag.SOLENOID


def criterion_function(theta, model: ValidatedModel):
    """s(theta) = h'(theta) - alpha'(theta) / (gamma * alpha(theta)).

    Exact Fourier derivatives, read from one bank of (alpha, h) per model;
    alpha > 0 is guaranteed by validation.
    """
    bank = model.memoized("criterion_bank", lambda: SeriesBank([model.cfg.alpha, model.cfg.h]))
    alpha, _, alpha1, h1 = bank.eval(theta, derivatives=True)
    return h1 - alpha1 / (model.gamma * alpha)


def criterion_lipschitz(model: ValidatedModel) -> float:
    """Global Lipschitz bound for s: sup|h''| + (sup|a''|/min a + (sup|a'|/min a)^2)/gamma."""
    cfg = model.cfg
    a_lo = model.alpha_min
    a1 = model.deriv_sup_bounds[0]
    a2 = cfg.alpha.deriv().deriv_sup_bound()
    h2 = cfg.h.deriv().deriv_sup_bound()
    return h2 + (a2 / a_lo + (a1 / a_lo) ** 2) / model.gamma


def _case_criterion(case_tag: CaseTag, model: ValidatedModel):
    """The case criterion as a function of the angle (s, 1 + m*s or |m + s|),
    and its uninflated grid margin as a function of its grid extrema."""
    m = model.m
    if case_tag is CaseTag.BLUE_SKY:
        return (lambda theta: criterion_function(theta, model),
                lambda cmin, cmax: 1.0 - max(abs(cmin), abs(cmax)))
    if case_tag is CaseTag.TORUS_OR_KLEIN:
        return (lambda theta: 1.0 + m * criterion_function(theta, model),
                lambda cmin, cmax: cmin)
    return (lambda theta: np.abs(m + criterion_function(theta, model)),
            lambda cmin, cmax: cmin - 1.0)


def check_case(model: ValidatedModel) -> ConditionReport:
    """Certify the case inequality that the model's degree m picks
    (``case_for_degree``) for its criterion function.

    Evaluates the criterion on a uniform grid of 4096 points and inflates
    by lipschitz * (half spacing).  A grid margin < 0 (a grid angle
    violating the strict inequality) yields verdict False immediately; a
    margin exceeding the inflation yields verdict True; otherwise the grid
    doubles, evaluating only the new midpoints, up to the cap of 2^20
    points (each evaluated once), after which Inconclusive is raised.  The
    rule is ``lipschitz_grid_extrema``'s: a margin of exactly 0, or one
    within the inflation, is never turned into a verdict.
    The outcome does not depend on mu, so it is computed once per model;
    a repeated Inconclusive is raised afresh with the same fields.
    """
    case_tag = case_for_degree(model.m)

    def compute():
        lip = criterion_lipschitz(model)  # also bounds 1 + m*s at |m| = 1, and |m + s|
        values, margin = _case_criterion(case_tag, model)
        cmin, cmax, grid, inflation, verdict = lipschitz_grid_extrema(values, lip, margin)
        raw_margin = margin(cmin, cmax)
        if verdict is None:
            return case_tag, raw_margin, inflation, grid
        certified = raw_margin - inflation if verdict else raw_margin
        return ConditionReport(case_tag, cmin, cmax, certified, verdict, grid, lip)

    outcome = model.memoized("check_case", compute)
    if isinstance(outcome, ConditionReport):
        return outcome
    raise Inconclusive(*outcome)


def certified_angular_expansion(model: ValidatedModel) -> float:
    """Certified lower bound of inf |m + s(theta)| over the circle, |m| >= 1.

    Read off the model's case report (``check_case``) as its certified
    minimum, criterion_min - lipschitz_bound * pi / grid_size, with no grid
    loop of its own: at |m| >= 2 the SOLENOID criterion is |m + s| itself
    (> 1 exactly when the solenoid condition holds), and at |m| = 1 the
    TORUS_OR_KLEIN criterion 1 + m*s equals |m + s| wherever it is positive
    (a negative bound means the condition fails).  Raises CaseMismatch at
    m = 0 and Inconclusive wherever ``check_case`` does.
    """
    if model.m == 0:
        raise CaseMismatch("the angular expansion needs |m| >= 1, got m=0")
    report = check_case(model)
    return report.criterion_min - report.lipschitz_bound * np.pi / report.grid_size
