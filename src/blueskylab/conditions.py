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
grid doubles while the margin is smaller than the inflation; exact
trigonometric polynomials make this fully rigorous without interval
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fourier import lipschitz_grid_extrema
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
    """

    def __init__(self, case_tag, raw_margin, inflation, grid_size):
        self.case_tag = case_tag
        self.raw_margin = raw_margin
        self.inflation = inflation
        self.grid_size = grid_size
        super().__init__(
            f"{case_tag.value}: margin {raw_margin:.3e} within inflation "
            f"{inflation:.3e} at grid cap {grid_size}"
        )


@dataclass(frozen=True)
class ConditionReport:
    """Certified min/max of a case criterion over the circle.

    ``margin`` is the certified distance from the threshold, the grid
    margin minus the Lipschitz inflation; a true verdict always has
    margin > 0, a false verdict has a grid angle violating the strict
    inequality outright.  Frozen: one report is shared by every caller
    that checks the same model.
    """

    case_tag: CaseTag
    criterion_min: float
    criterion_max: float
    margin: float
    verdict: bool
    grid_size: int
    lipschitz_bound: float

    def to_dict(self) -> dict:
        return {
            "case_tag": self.case_tag.value,
            "criterion_min": self.criterion_min,
            "criterion_max": self.criterion_max,
            "margin": self.margin,
            "verdict": self.verdict,
            "grid_size": self.grid_size,
            "lipschitz_bound": self.lipschitz_bound,
        }


def case_for_degree(m: int) -> CaseTag:
    if m == 0:
        return CaseTag.BLUE_SKY
    if abs(m) == 1:
        return CaseTag.TORUS_OR_KLEIN
    return CaseTag.SOLENOID


def criterion_function(theta, model: ValidatedModel):
    """s(theta) = h'(theta) - alpha'(theta) / (gamma * alpha(theta)).

    Exact Fourier derivatives; alpha > 0 is guaranteed by validation.
    """
    cfg = model.cfg
    return cfg.h.deriv().eval(theta) - cfg.alpha.deriv().eval(theta) / (
        model.gamma * cfg.alpha.eval(theta)
    )


def criterion_lipschitz(model: ValidatedModel) -> float:
    """Global Lipschitz bound for s: sup|h''| + (sup|a''|/min a + (sup|a'|/min a)^2)/gamma."""
    cfg = model.cfg
    a_lo = model.alpha_min
    a1 = cfg.alpha.deriv_sup_bound()
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


def check_case(case_tag: CaseTag, model: ValidatedModel) -> ConditionReport:
    """Certify the case inequality for the model's criterion function.

    Evaluates the criterion on a uniform grid of 4096 points and inflates
    by lipschitz * (half spacing).  A grid angle violating the strict
    inequality yields verdict False immediately; a margin exceeding the
    inflation yields verdict True; otherwise the grid doubles up to the
    cap of 2^20 points, after which Inconclusive is raised (equality with
    the threshold within the inflation is never turned into a verdict).
    The outcome does not depend on mu, so it is computed once per model;
    a repeated Inconclusive is raised afresh with the same fields.
    """
    case_tag = CaseTag(case_tag)
    m = model.m
    if case_tag is not case_for_degree(m):
        raise CaseMismatch(f"{case_tag.value} is inconsistent with degree m={m}")

    def compute():
        lip_s = criterion_lipschitz(model)
        lip = abs(m) * lip_s if case_tag is CaseTag.TORUS_OR_KLEIN else lip_s
        values, margin = _case_criterion(case_tag, model)

        def decided(cmin, cmax, inflation):
            return margin(cmin, cmax) < 0.0 or margin(cmin, cmax) > inflation

        cmin, cmax, grid, inflation, _ = lipschitz_grid_extrema(values, lip, decided)
        raw_margin = margin(cmin, cmax)
        if raw_margin < 0.0:
            return ConditionReport(case_tag, cmin, cmax, raw_margin, False, grid, lip)
        if raw_margin > inflation:
            return ConditionReport(case_tag, cmin, cmax, raw_margin - inflation, True, grid, lip)
        return case_tag, raw_margin, inflation, grid

    outcome = model.memoized("check_case", compute)
    if isinstance(outcome, ConditionReport):
        return outcome
    raise Inconclusive(*outcome)


def certified_angular_expansion(model: ValidatedModel) -> float:
    """Certified lower bound of inf |m + s(theta)| over the circle.

    The angular expansion rate of the limit return map; > 1 exactly when
    the solenoid condition holds.  The grid starts at 4096 points and
    doubles while the bound is not positive, up to 2^20 points, where the
    bound is returned as it stands.  It does not depend on mu, so it is
    computed once per model.
    """
    def compute():
        vmin, _, _, inflation, _ = lipschitz_grid_extrema(
            _case_criterion(CaseTag.SOLENOID, model)[0], criterion_lipschitz(model),
            lambda vmin, vmax, inflation: vmin - inflation > 0.0)
        return vmin - inflation
    return model.memoized("certified_angular_expansion", compute)
