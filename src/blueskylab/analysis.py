"""Attractor computation and certification for each degree regime.

Degree m = 0: Newton fixed points of the return map and their multipliers.
Degree |m| = 1: graph-transform invariant curves with orientation, the
cross-section traces of an invariant torus (m = 1) or Klein bottle (m = -1).
Degree |m| >= 2: cone-condition certificates of uniform hyperbolicity for
the solid-torus map, Lyapunov spectra, and finite-depth symbolic coding
against the degree-m expanding circle factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from .conditions import (
    CaseMismatch,
    CaseTag,
    ConditionReport,
    Inconclusive,
    case_for_degree,
    certified_angular_expansion,
    check_case,
)
from .fourier import TWO_PI
from .model import (
    TorusPoint,
    Undecided,
    ValidatedModel,
    angle_diff,
    reduce_angle,
    require_count,
    require_mu,
)

__all__ = [
    "AnnulusDiagnostic",
    "AttractorLabel",
    "BranchAmbiguity",
    "ClassificationRecord",
    "ConeCertificate",
    "FixedPointResult",
    "InvariantCurve",
    "ItineraryReport",
    "LyapunovSpectrum",
    "NoConvergence",
    "NotACircleMap",
    "NotExpandingInTheta",
    "Orientation",
    "annulus_diagnostic",
    "branch_boundaries",
    "certify_jacobian_field",
    "circle_degree",
    "classify_attractor",
    "cone_certify",
    "find_fixed_point",
    "graph_transform_curve",
    "itinerary_semiconjugacy",
    "lyapunov_spectrum",
    "phase_distance",
]

LYAPUNOV_FLOOR = -50.0
# nodes copied from each end of the turn to pad the graph transform's PCHIP
# periodically: a slope reads one neighbour on each side, so only the
# outermost pad nodes take the one-sided end slope, and every interval the
# inverse evaluates has the slopes of the whole periodic curve
PCHIP_PAD = 4
# orbits the Lyapunov cocycle advances together
LYAPUNOV_ENSEMBLE = 256
# itinerary coding: transient returns of each drawn orbit, the distance to a
# branch boundary below which an orbit is redrawn, and the redraw rounds
ITINERARY_TRANSIENT = 64
BOUNDARY_TOL = 1e-9
MAX_RESAMPLE_ROUNDS = 8


class NoConvergence(Undecided, RuntimeError):
    """An iterative solver exhausted its iteration budget."""


class NotACircleMap(Undecided, RuntimeError):
    """The angular component failed strict monotonicity along the curve."""


class NotExpandingInTheta(Undecided, RuntimeError):
    """The certified lower bound of the angular derivative is <= 1."""


class BranchAmbiguity(Undecided, RuntimeError):
    """An orbit angle stayed within tolerance of a branch boundary after resampling."""


class Orientation(Enum):
    PRESERVING = "Preserving"
    REVERSING = "Reversing"


class AttractorLabel(Enum):
    STABLE_PERIODIC_ORBIT = "StablePeriodicOrbit"
    INVARIANT_TORUS = "InvariantTorus"
    KLEIN_BOTTLE = "KleinBottle"
    SOLENOID = "Solenoid"
    INDETERMINATE = "Indeterminate"


def phase_distance(p: TorusPoint, q: TorusPoint) -> float:
    """Euclidean distance in (X, Y) plus circle distance in theta."""
    dy = p.Y - q.Y
    return float(np.sqrt((p.X - q.X) ** 2 + np.dot(dy, dy)
                         + angle_diff(p.theta, q.theta) ** 2))


# ---------------------------------------------------------------------------
# fixed points (degree 0)
# ---------------------------------------------------------------------------


@dataclass
class FixedPointResult:
    point: TorusPoint
    multipliers: np.ndarray        # eigenvalues of the return-map derivative
    residual: float
    newton_iterations: int
    flight: float                  # flight time of the return from the point

    @property
    def stable(self) -> bool:
        return bool(np.all(np.abs(self.multipliers) < 1.0))

    def to_dict(self) -> dict:
        return {
            "theta": self.point.theta,
            "X": self.point.X,
            "Y": self.point.Y.tolist(),
            "multiplier_moduli": np.abs(self.multipliers).tolist(),
            "residual": self.residual,
            "newton_iterations": self.newton_iterations,
        }


def find_fixed_point(model: ValidatedModel, mu: float) -> FixedPointResult:
    """Newton iteration for a fixed point of the rescaled return map.

    Starts two forward steps (onto the attracting core) from the limit
    curve at angle 0 and works on (X, Y, theta-lift) with the angular
    residual wrapped to the circle, using the analytic Jacobian, until the
    residual drops below 1e-13 (that step, at the returned point, gives the
    flight and multipliers); NoConvergence after 100 Newton steps.
    Intended for degree m = 0, where the contracting limit map has a
    unique stable fixed point, but runs for any degree.
    """
    seed = model.seed_point()
    X, Y, th, _ = model.advance(seed.X, seed.Y, seed.theta, mu, 2)
    k = model.ydim
    n = model.n
    for iterations in range(1, 101):
        Xb, Yb, lift, flight, jac = model.rescaled_step(X, Y, th, mu, with_jacobian=True)
        g = np.concatenate(([float(Xb) - X], Yb - Y, [float(angle_diff(lift, th))]))
        residual = float(np.linalg.norm(g))
        if residual < 1e-13:
            break
        step = np.linalg.solve(jac - np.eye(n), -g)
        X += step[0]
        Y = Y + step[1 : 1 + k]
        th = reduce_angle(th + step[n - 1])
    else:
        raise NoConvergence(f"Newton did not reach tol=1e-13 in 100 iterations "
                            f"(last residual {residual:.3e})")
    return FixedPointResult(
        point=TorusPoint(th, X, Y),
        multipliers=np.linalg.eigvals(jac),
        residual=residual,
        newton_iterations=iterations,
        flight=float(flight),
    )


# ---------------------------------------------------------------------------
# invariant curves (degree +-1)
# ---------------------------------------------------------------------------


@dataclass
class InvariantCurve:
    """A closed curve theta -> (X, Y) on a uniform angular grid.

    ``residual_sup`` is the sup over grid nodes of the distance between the
    image of the curve point and the curve evaluated at the image angle
    (linear interpolation between nodes).
    """

    theta_grid: np.ndarray
    radial_values: np.ndarray      # (N, 1 + ydim), column 0 is X
    residual_sup: float
    orientation: Orientation

    @property
    def X(self) -> np.ndarray:
        return self.radial_values[:, 0]

    @property
    def Y(self) -> np.ndarray:
        return self.radial_values[:, 1:]

    def radial_at(self, theta):
        """Linear interpolation of (X, Y) at arbitrary finite angles; shape
        (..., 1+ydim).  Raises ValueError for a non-finite angle."""
        theta = np.asarray(theta, dtype=float)
        if not np.all(np.isfinite(theta)):
            raise ValueError("radial_at needs finite angles")
        return _periodic_interp(self.radial_values, theta)


def _periodic_interp(radial, theta):
    """Linear interpolation at ``theta`` of node rows ``radial`` given on a
    uniform grid over one turn; shape theta.shape + radial.shape[1:]."""
    n = len(radial)
    pos = reduce_angle(np.asarray(theta, dtype=float)) / (TWO_PI / n)
    base = np.floor(pos)
    frac = pos - base
    # pos lies in [0, n], so the node indices i0 and i0 + 1 wrap at most once
    i0 = base.astype(np.intp)
    return (1.0 - frac)[..., None] * radial.take(i0, axis=0, mode="wrap") \
        + frac[..., None] * radial.take(i0 + 1, axis=0, mode="wrap")


def _curve_residual(radial, Xb, Yb, lift):
    """Distance from mapped nodes to the linearly interpolated curve at the image angles."""
    interp = _periodic_interp(radial, lift)
    dx = Xb - interp[:, 0]
    dy = Yb.T - interp[:, 1:]
    return float(np.max(np.sqrt(dx ** 2 + np.sum(dy ** 2, axis=1))))


def graph_transform_curve(model: ValidatedModel, mu: float, grid_size: int = 1024,
                          tol: float = 1e-8) -> InvariantCurve:
    """Graph transform for the attracting invariant curve at degree |m| = 1.

    Starting from the limit curve (X, Y) = (alpha(theta)^nu, 0), each step
    maps the graph and reparametrizes it by the image angle; the angular
    lift along the curve must be strictly monotone (the circle-map
    property guaranteed by the torus condition), and its inverse is taken
    with monotone cubic (PCHIP) interpolation on the lift, padded
    periodically by ``PCHIP_PAD`` nodes from the other end of the turn on
    each side.  Iterates until the invariance residual drops below ``tol``;
    NoConvergence after 50 steps without improvement or 10^4 steps.

    Raises ValueError unless ``grid_size`` is an integer of at least
    2 * PCHIP_PAD and ``tol`` is finite and positive.
    """
    if abs(model.m) != 1:
        raise CaseMismatch(f"graph transform requires |m| = 1, got m={model.m}")
    n = require_count("grid_size", grid_size, 2 * PCHIP_PAD)
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    k = model.ydim
    theta = np.arange(n) * (TWO_PI / n)
    radial = np.zeros((n, 1 + k))
    radial[:, 0] = model.limit_radial(theta)

    residual = np.inf
    best = np.inf
    stalled = 0
    sign = 0.0
    for _ in range(10 ** 4):
        Xb, Yb, lift, _ = model.rescaled_step(radial[:, 0], radial[:, 1:].T, theta, mu)
        diffs = np.diff(lift)
        if np.all(diffs > 0.0) and lift[-1] < lift[0] + TWO_PI:
            sign = 1.0
        elif np.all(diffs < 0.0) and lift[-1] > lift[0] - TWO_PI:
            sign = -1.0
        else:
            raise NotACircleMap("angular component is not strictly monotone along the curve")
        residual = _curve_residual(radial, Xb, Yb, lift)
        if residual < tol:
            break
        # the piecewise-linear residual cannot drop below ~h^2/8 * curvature;
        # bail out once the transform has clearly stopped improving
        stalled = stalled + 1 if residual > 0.9999 * best else 0
        best = min(best, residual)
        if stalled >= 50:
            raise NoConvergence(
                f"graph transform stagnated at residual {residual:.3e} above tol={tol} "
                f"(grid_size={n} interpolation floor; refine the grid)")

        w = sign * lift
        values = np.column_stack([Xb, Yb.T]) if k else Xb[:, None]
        p = PCHIP_PAD
        w_ext = np.concatenate([w[-p:] - TWO_PI, w, w[:p] + TWO_PI])
        v_ext = np.concatenate([values[-p:], values, values[:p]])
        interp = PchipInterpolator(w_ext, v_ext, axis=0)
        targets = sign * theta
        targets = targets + TWO_PI * np.ceil((w[0] - targets) / TWO_PI)
        radial = interp(targets)
    else:
        raise NoConvergence(f"graph transform residual {residual:.3e} above tol={tol} "
                            f"after 10^4 iterations")

    orientation = Orientation.PRESERVING if sign > 0 else Orientation.REVERSING
    return InvariantCurve(theta, radial, residual, orientation)


@dataclass
class AnnulusDiagnostic:
    """The square-root contraction inequality behind the invariant-curve case.

    ``lhs`` is 1 - sup|dp/dr| * sup|(dq/dtheta)^-1| and ``rhs`` is
    2 sqrt(sup|(dq/dtheta)^-1| * sup|dq/dr| * sup|dp/dtheta (dq/dtheta)^-1|),
    with suprema over the trapping samples (the core and the radial face
    centres at each grid angle); ``satisfied`` means
    lhs > rhs.  Diagnostic only: the certified angular condition
    1 + m*s > 0 is the effective criterion for this map family.
    """

    sup_pr: float
    sup_ptheta: float
    sup_qtheta_inv: float
    sup_qr: float
    lhs: float
    rhs: float

    @property
    def gap(self) -> float:
        return self.lhs - self.rhs

    @property
    def satisfied(self) -> bool:
        return self.lhs > self.rhs


def annulus_diagnostic(model: ValidatedModel, mu: float) -> AnnulusDiagnostic:
    """Evaluate the annulus contraction inequality at degree |m| = 1, over
    the trapping samples at 256 angles.

    Unlike the solenoid cone conditions this does not need angular
    expansion, so sup|(dq/dtheta)^-1| may exceed one; the inequality holds
    whenever the radial contraction beats the cross terms, which is the
    regime where the graph transform converges to a smooth curve.
    """
    if abs(model.m) != 1:
        raise CaseMismatch(f"annulus diagnostic requires |m| = 1, got m={model.m}")
    th, X, Y, K = model.trapping_samples(mu, n_theta=256)
    *_, jac = model.rescaled_step(X, Y, th, mu, with_jacobian=True)
    p_r, p_t, q_r, q_t = _jacobian_blocks(jac)
    if np.any(q_t == 0.0):
        raise NotACircleMap("vanishing angular derivative on the trapping torus")
    sup_pr, sup_ptheta, sup_qtinv, sup_qr = _sample_sups(p_r, p_t, q_r, q_t)
    sup_pt_qtinv = float(np.max(np.linalg.norm(p_t, axis=1) / np.abs(q_t)))
    lhs = 1.0 - sup_qtinv * sup_pr
    rhs = 2.0 * float(np.sqrt(sup_qtinv * sup_qr * sup_pt_qtinv))
    return AnnulusDiagnostic(sup_pr, sup_ptheta, sup_qtinv, sup_qr, lhs, rhs)


def _jacobian_blocks(jac):
    """(dp/dr, dp/dtheta, dq/dr, dq/dtheta) of stacked (M, dim, dim)
    derivatives of r_bar = p(r, theta), theta_bar = q(r, theta), angle last."""
    r = jac.shape[1] - 1
    return jac[:, :r, :r], jac[:, :r, r], jac[:, r, :r], jac[:, r, r]


def _sample_sups(p_r, p_t, q_r, q_t):
    """Sample suprema of |dp/dr| (operator norm, 0 without a radial
    coordinate), |dp/dtheta|, |(dq/dtheta)^-1| and |dq/dr| over the blocks
    of ``_jacobian_blocks``."""
    sup_pr = float(np.max(np.linalg.svd(p_r, compute_uv=False)[:, 0])) if p_r.shape[1] else 0.0
    return (sup_pr, float(np.max(np.linalg.norm(p_t, axis=1))),
            float(np.max(1.0 / np.abs(q_t))), float(np.max(np.linalg.norm(q_r, axis=1))))


def _reference_lift(model: ValidatedModel, mu: float, theta):
    """Angular lift along the limit curve (X, Y) = (alpha^nu, 0)."""
    theta = np.asarray(theta, dtype=float)
    X = model.limit_radial(theta)
    Y = np.zeros((model.ydim,) + theta.shape)
    return model.rescaled_step(X, Y, theta, mu)[2]


def circle_degree(model: ValidatedModel, mu: float) -> int:
    """Winding number of the angular image along the limit curve.

    Measured by unwrapping the reduced image angles at 4096 + 1 points over
    one loop of the input angle; equals the model degree m for every valid
    configuration.
    """
    theta = np.linspace(0.0, TWO_PI, 4096 + 1)
    unwrapped = np.unwrap(reduce_angle(_reference_lift(model, mu, theta)))
    return int(np.round((unwrapped[-1] - unwrapped[0]) / TWO_PI))


# ---------------------------------------------------------------------------
# cone certification (degree |m| >= 2)
# ---------------------------------------------------------------------------


@dataclass
class ConeCertificate:
    """Sup-norms of the solid-torus map partials and the cone verdict.

    The ``sup_*`` and ``cross_sup_*`` fields are suprema over the sample
    grid, kept as diagnostics; the verdict uses the ``certified`` upper
    bounds (worst-case over the whole trapping region) so that a true
    verdict has positive certified margins.  ``L_interval`` is the
    certified admissible cone aperture range, computed from those bounds
    (``certified["L_interval"]``), with +inf for an unbounded upper end
    and None when empty.
    """

    sup_pr: float
    sup_ptheta: float
    sup_qtheta_inv: float
    sup_qr: float
    cross_sup_pr: float
    cross_sup_ptheta_bar: float
    cross_sup_qtheta_bar: float
    cross_sup_qr: float
    L_interval: tuple[float, float] | None
    verdict: bool
    certified: dict = field(default_factory=dict, repr=False)

    @property
    def expansion_lower_bound(self) -> float:
        """Certified lower bound on the angular derivative |dq/dtheta|."""
        return self.certified["qtheta_lower"]

    def to_dict(self) -> dict:
        if self.L_interval is None:
            interval = None
        else:
            low, high = self.L_interval
            interval = [low, None if np.isinf(high) else high]
        return {
            "sup_pr": self.sup_pr,
            "sup_ptheta": self.sup_ptheta,
            "sup_qtheta_inv": self.sup_qtheta_inv,
            "sup_qr": self.sup_qr,
            "cross_sup_pr": self.cross_sup_pr,
            "cross_sup_ptheta_bar": self.cross_sup_ptheta_bar,
            "cross_sup_qtheta_bar": self.cross_sup_qtheta_bar,
            "cross_sup_qr": self.cross_sup_qr,
            "L_interval": interval,
            "verdict": self.verdict,
        }


def _cone_checks(pr, ptheta, qt_inv, qr_over_qt, cross_pr, cross_pt, cross_qt, cross_qr):
    """The forward conditions, the cross-form conditions, and the admissible
    cone apertures cross_pt/(1-cross_pr) < L < (1-cross_qt)/cross_qr (None
    when empty)."""
    c_forward = pr < 1.0 and (1.0 - pr) * (1.0 - qt_inv) > ptheta * qr_over_qt
    c_cross = cross_pr < 1.0 and cross_qt < 1.0 and \
        (1.0 - cross_pr) * (1.0 - cross_qt) >= cross_pt * cross_qr
    interval = None
    if cross_pr < 1.0 and cross_qt < 1.0:
        low = cross_pt / (1.0 - cross_pr)
        high = np.inf if cross_qr == 0.0 else (1.0 - cross_qt) / cross_qr
        if low < high:
            interval = (float(low), float(high))
    return c_forward, c_cross, interval


def _require_expanding(qtheta_lower: float) -> None:
    if qtheta_lower <= 1.0:
        raise NotExpandingInTheta(
            f"certified angular-derivative lower bound {qtheta_lower:.6g} <= 1")


def certify_jacobian_field(jacobians: np.ndarray, bounds: dict | None = None) -> ConeCertificate:
    """Cone certificate from sampled derivatives of a solid-torus map.

    Parameters
    ----------
    jacobians : array (M, dim, dim)
        Derivatives d(r_bar, theta_bar)/d(r, theta) at the sample points,
        with the angular coordinate LAST.  The map must be written
        r_bar = p(r, theta), theta_bar = q(r, theta).
    bounds : optional dict
        The complete certified record over the whole region, as
        ``_cone_upper_bounds`` returns it: upper bounds ``pr``, ``ptheta``,
        ``qr``, ``cross_pr``, ``cross_ptheta_bar``, ``cross_qtheta_bar``,
        ``cross_qr`` and the lower bound ``qtheta_lower`` > 1 of
        |dq/dtheta|.  When absent, the sample values stand for every key
        and rigor rests on the caller's sampling.

    Raises NotExpandingInTheta when, without ``bounds``, the sample minimum
    of |dq/dtheta| is <= 1 (the cross-form bookkeeping is not available),
    and Inconclusive when the grid values satisfy the inequalities but the
    certified bounds do not.
    """
    jac = np.asarray(jacobians, dtype=float)
    if jac.ndim != 3 or jac.shape[1] != jac.shape[2]:
        raise ValueError("jacobians must have shape (M, dim, dim)")
    r = jac.shape[1] - 1
    p_r, p_t, q_r, q_t = _jacobian_blocks(jac)

    if bounds is None:
        qt_min = float(np.min(np.abs(q_t)))
        _require_expanding(qt_min)

    sup_pr, sup_ptheta, sup_qtheta_inv, sup_qr = _sample_sups(p_r, p_t, q_r, q_t)

    # cross-form partials: theta solved from (r, theta_bar)
    inv_qt = 1.0 / q_t
    cross_qt_s = np.abs(inv_qt)
    cross_qr_s = np.linalg.norm(q_r, axis=1) * cross_qt_s
    cross_pt_s = np.linalg.norm(p_t, axis=1) * cross_qt_s
    cross_pr_mat = p_r - np.einsum("mi,mj->mij", p_t, q_r * inv_qt[:, None])
    cross_pr_s = np.linalg.svd(cross_pr_mat, compute_uv=False)[:, 0] if r else np.zeros(len(jac))

    cross_sup_pr = float(np.max(cross_pr_s))
    cross_sup_pt = float(np.max(cross_pt_s))
    cross_sup_qt = float(np.max(cross_qt_s))
    cross_sup_qr = float(np.max(cross_qr_s))

    grid_qr_over_qt = float(np.max(np.linalg.norm(q_r, axis=1) / np.abs(q_t)))
    g_forward, g_cross, g_interval = _cone_checks(
        sup_pr, sup_ptheta, sup_qtheta_inv, grid_qr_over_qt,
        cross_sup_pr, cross_sup_pt, cross_sup_qt, cross_sup_qr)
    grid_ok = g_forward and g_cross and g_interval is not None

    if bounds is None:
        cert = {
            "pr": sup_pr, "ptheta": sup_ptheta, "qr": sup_qr,
            "cross_pr": cross_sup_pr, "cross_ptheta_bar": cross_sup_pt,
            "cross_qtheta_bar": cross_sup_qt, "cross_qr": cross_sup_qr,
            "qtheta_lower": qt_min,
        }
    else:
        cert = dict(bounds)
    c_forward, c_cross, cert_interval = _cone_checks(
        cert["pr"], cert["ptheta"], 1.0 / cert["qtheta_lower"],
        cert["qr"] / cert["qtheta_lower"],
        cert["cross_pr"], cert["cross_ptheta_bar"],
        cert["cross_qtheta_bar"], cert["cross_qr"],
    )
    cert["L_interval"] = cert_interval
    certified_ok = c_forward and c_cross and cert_interval is not None

    if certified_ok:
        verdict = True
    elif not grid_ok:
        verdict = False
    else:
        raise Inconclusive(CaseTag.SOLENOID,
                           raw_margin=(1.0 - cert["cross_pr"]) * (1.0 - cert["cross_qtheta_bar"])
                           - cert["cross_ptheta_bar"] * cert["cross_qr"],
                           inflation=np.nan, grid_size=len(jac))
    return ConeCertificate(
        sup_pr=sup_pr, sup_ptheta=sup_ptheta, sup_qtheta_inv=sup_qtheta_inv, sup_qr=sup_qr,
        cross_sup_pr=cross_sup_pr, cross_sup_ptheta_bar=cross_sup_pt,
        cross_sup_qtheta_bar=cross_sup_qt, cross_sup_qr=cross_sup_qr,
        L_interval=cert_interval, verdict=verdict, certified=cert,
    )


def _cone_upper_bounds(model: ValidatedModel, mu: float, K: float) -> dict:
    """Worst-case bounds of the return-map partials over the trapping torus.

    Built from Fourier coefficient sums, the certified minimum of alpha,
    and the certified angular expansion; over {|X - alpha^nu| <= K,
    |Y| <= K} every bound dominates the true supremum, and
    ``qtheta_lower`` lies below the infimum of |dq/dtheta|.  Raises
    NotExpandingInTheta when ``qtheta_lower`` <= 1.
    """
    nu, bg, d, gamma, m = model.nu, model.beta_over_gamma, model.d, model.gamma, model.m
    cfg = model.cfg
    sup = model.coupling_sup_bounds()
    k = model.ydim
    a_hi, a_lo = model.alpha_sup, model.alpha_min
    a1 = cfg.alpha.deriv_sup_bound()

    mu_nu = mu ** nu
    c_y = mu ** (bg - nu)
    d_pow = d ** (1.0 - nu)
    x_abs, c_max, delta, u_lo, u_hi, y0_max = model._excursion_bounds(mu, K)
    fy1_norm = float(np.sqrt(np.sum(sup["fy1"] ** 2))) if k else 0.0
    ct_max = d_pow * sup["fx1"] * x_abs + fy1_norm * K
    ut_max = a1 + mu ** (nu - 1.0) * ct_max

    y0t_max = sup["g01"] + mu_nu * (d_pow * sup["fy1"] * x_abs + sup["hy1"] * K) if k else np.zeros(0)

    # radial block, entrywise bounds -> Frobenius dominates the operator norm
    w_hi = nu * u_hi ** (nu - 1.0) * mu ** (nu - 1.0)
    row_x = np.concatenate(([w_hi * d_pow * sup["fx"]], w_hi * sup["fy"]))
    b_pr_sq = float(np.sum(row_x ** 2))
    v_hi = c_y * bg * u_hi ** (bg - 1.0) * mu ** (nu - 1.0)
    q_hi = c_y * u_hi ** bg
    for i in range(k):
        row = np.concatenate((
            [v_hi * d_pow * sup["fx"] * y0_max[i] + q_hi * mu_nu * d_pow * sup["fy"][i]],
            v_hi * sup["fy"] * y0_max[i],
        ))
        row[1 + i] += q_hi * mu_nu * sup["hy"][i]
        b_pr_sq += float(np.sum(row ** 2))
    b_pr = float(np.sqrt(b_pr_sq))

    w_th = nu * u_hi ** (nu - 1.0) * ut_max
    y_th = v_hi / mu ** (nu - 1.0) * ut_max * y0_max + q_hi * (
        y0t_max if k else np.zeros(0))
    b_ptheta = float(np.sqrt(w_th ** 2 + np.sum(y_th ** 2)))

    qr_x = mu_nu * d_pow * sup["hx"] + mu ** (nu - 1.0) * d_pow * sup["fx"] / (gamma * u_lo)
    qr_y = mu_nu * sup["hy"] + mu ** (nu - 1.0) * sup["fy"] / (gamma * u_lo) if k \
        else np.zeros(0)
    b_qr = float(np.sqrt(qr_x ** 2 + np.sum(qr_y ** 2)))

    # angular derivative: m + s(theta) plus bounded corrections
    hy1_sum = float(np.sqrt(np.sum(sup["hy1"] ** 2))) if k else 0.0
    corr = mu_nu * d_pow * sup["hx1"] * x_abs + mu_nu * hy1_sum * K \
        + mu ** (nu - 1.0) * (a1 * c_max + a_hi * ct_max) / (gamma * a_lo * u_lo)
    expansion = certified_angular_expansion(model)
    qtheta_lo = expansion - corr
    _require_expanding(qtheta_lo)
    return {
        "pr": b_pr,
        "ptheta": b_ptheta,
        "qr": b_qr,
        "cross_pr": b_pr + b_ptheta * b_qr / qtheta_lo,
        "cross_ptheta_bar": b_ptheta / qtheta_lo,
        "cross_qtheta_bar": 1.0 / qtheta_lo,
        "cross_qr": b_qr / qtheta_lo,
        "qtheta_lower": qtheta_lo,
    }


def cone_certify(model: ValidatedModel, mu: float, grid: int = 256) -> ConeCertificate:
    """Cone-condition certificate of uniform hyperbolicity at degree |m| >= 2.

    Samples the trapping solid torus (``grid`` angles times the core and
    the 2(n-1) radial face centres), computes the analytic return-map
    derivatives, and checks the forward and cross-form inequalities.  The
    verdict and ``L_interval`` use worst-case upper bounds over the whole
    region, so a true verdict has positive certified margins; the samples
    only tell a violated condition (False) from an Inconclusive one.
    """
    if abs(model.m) < 2:
        raise CaseMismatch(f"cone certification requires |m| >= 2, got m={model.m}")
    th, X, Y, K = model.trapping_samples(mu, n_theta=grid)
    *_, jac = model.rescaled_step(X, Y, th, mu, with_jacobian=True)
    return certify_jacobian_field(jac, _cone_upper_bounds(model, mu, K))


# ---------------------------------------------------------------------------
# Lyapunov spectrum
# ---------------------------------------------------------------------------


@dataclass
class LyapunovSpectrum:
    """QR-cocycle averages over an ensemble of orbits, sorted descending.

    Directions whose growth rate falls below -50 (total contraction to
    numerical zero, e.g. vanishing couplings) are reported as -inf.
    ``orbit_length`` is the number of averaged returns summed over the
    ensemble, ``transient_discarded`` the number each orbit discards
    first.  ``confidence_halfwidth`` is 1.96 times the across-orbit
    standard error of the top exponent (nan with a single orbit).
    """

    exponents: list[float]
    orbit_length: int
    transient_discarded: int
    confidence_halfwidth: float

    @property
    def top(self) -> float:
        return self.exponents[0]

    def to_dict(self) -> dict:
        return {
            "exponents": [e if np.isfinite(e) else None for e in self.exponents],
            "orbit_length": self.orbit_length,
            "transient_discarded": self.transient_discarded,
            "confidence_halfwidth": self.confidence_halfwidth,
        }


def lyapunov_spectrum(model: ValidatedModel, mu: float, iterations: int,
                      transient: int = 1000) -> LyapunovSpectrum:
    """Lyapunov exponents of the return map by ensemble QR cocycle averaging.

    ``B = min(LYAPUNOV_ENSEMBLE, iterations)`` orbits start on the limit
    curve at the equally spaced angles ``0.5 + 2*pi*j/B`` and are advanced
    together, one ``rescaled_step`` call per return.  Each orbit discards
    ``transient`` returns, the last ``min(200, transient)`` of which
    already evolve its orthonormal frame, so the averages carry no
    initial-alignment bias.  Then the analytic Jacobians are accumulated
    with one stacked QR re-orthonormalization per return (Benettin et al.,
    Meccanica 15, 1980).  Exactly ``iterations`` returns are averaged:
    ``ceil(iterations / B)`` per orbit, the last step counting only the
    first orbits.  On the uniformly hyperbolic solenoid the ensemble
    average equals the time average along one orbit.  Nothing is random,
    so repeated calls give bit-identical exponents.

    Raises ValueError unless ``iterations`` >= 1 and ``transient`` >= 0
    are integers, and for a non-finite or non-positive ``mu``; EscapedTube
    if any orbit escapes, and FloatingPointError if a growth rate comes
    out NaN.
    """
    iterations = require_count("iterations", iterations, 1)
    transient = require_count("transient", transient, 0)
    require_mu(mu)
    warmup = min(200, transient)
    B = min(LYAPUNOV_ENSEMBLE, iterations)
    steps = -(-iterations // B)
    last = iterations - B * (steps - 1)

    th = reduce_angle(0.5 + TWO_PI * np.arange(B) / B)
    X, Y, th, _ = model.advance(model.limit_radial(th), np.zeros((model.ydim, B)), th, mu,
                                transient - warmup)
    Q = np.eye(model.n)
    acc = np.zeros((B, model.n))
    with np.errstate(divide="ignore"):
        for step in range(warmup + steps):
            X, Y, lift, _, jac = model.rescaled_step(X, Y, th, mu, with_jacobian=True)
            th = reduce_angle(lift)
            Q, R = np.linalg.qr(jac @ Q)
            if step >= warmup:
                counted = last if step == warmup + steps - 1 else B
                acc[:counted] += np.log(np.abs(np.diagonal(R, axis1=1, axis2=2)[:counted]))

    rates = acc.sum(axis=0) / iterations
    if np.any(np.isnan(rates)):
        raise FloatingPointError(f"NaN Lyapunov growth rate at mu={mu!r}")
    order = np.argsort(rates)[::-1]
    exponents = [float(r) if r >= LYAPUNOV_FLOOR else -np.inf for r in rates[order]]

    counts = np.full(B, steps - 1)
    counts[:last] += 1
    top_orbits = acc[:, order[0]] / counts
    top_orbits = top_orbits[np.isfinite(top_orbits)]
    if top_orbits.size > 1:
        half = 1.96 * float(np.std(top_orbits, ddof=1) / np.sqrt(top_orbits.size))
    else:
        half = float("nan")
    return LyapunovSpectrum(exponents, iterations, transient, half)


# ---------------------------------------------------------------------------
# symbolic itineraries (degree |m| >= 2)
# ---------------------------------------------------------------------------


@dataclass
class ItineraryReport:
    """Finite-depth symbolic coding of attractor orbits over the degree-m
    expanding circle factor.

    ``shift_consistent`` records that the branch index assigned from the
    angular partition agrees, at every step of every sampled orbit, with
    the winding window actually traversed by the step (the finite shadow
    of coding-commutes-with-shift).  ``contraction_ratio`` is the fitted
    per-depth shrink factor of the set of angles sharing an itinerary
    prefix; it should not exceed 1 / (certified angular expansion).
    """

    n_symbols: int
    depth: int
    samples: int
    shift_consistent: bool
    max_diameter_by_depth: list[tuple[int, float]]
    contraction_ratio: float
    prefactor: float
    expansion_lower_bound: float
    boundaries: np.ndarray
    resampled: int

    def to_dict(self) -> dict:
        return {
            "n_symbols": self.n_symbols,
            "depth": self.depth,
            "samples": self.samples,
            "shift_consistent": self.shift_consistent,
            "max_diameter_by_depth": [[k, d] for k, d in self.max_diameter_by_depth],
            "contraction_ratio": self.contraction_ratio,
            "prefactor": self.prefactor,
            "expansion_lower_bound": self.expansion_lower_bound,
            "resampled": self.resampled,
        }


def branch_boundaries(model: ValidatedModel, mu: float) -> tuple[np.ndarray, float]:
    """Branch cells of the degree-m angular factor along the limit curve.

    The boundaries are the |m| pre-images of a fixed point of the angular
    circle map.  A fixed point (rather than an arbitrary reference angle)
    makes the partition Markov: every boundary maps onto the fixed point,
    itself a boundary, so the set of angles sharing a depth-k itinerary is
    a single arc contracting at the inverse expansion rate.

    Returns (boundaries sorted in [0, 2pi), first window target t0 of the
    signed lift); the |m| arcs between consecutive boundaries are the
    symbol cells.
    """
    m = model.m
    if abs(m) < 2:
        raise CaseMismatch(f"branch coding requires |m| >= 2, got m={m}")
    sign = 1.0 if m > 0 else -1.0

    dense = np.linspace(0.0, TWO_PI, 4096 + 1)
    lift_dense = np.asarray(_reference_lift(model, mu, dense), dtype=float)
    w_dense = sign * lift_dense
    if np.any(np.diff(w_dense) <= 0.0):
        raise NotACircleMap("angular lift is not strictly monotone along the limit curve")

    # fixed point of the circle map: lift(theta) - theta crosses a 2pi
    # multiple; sign * (lift - theta) is monotone increasing either way
    g_dense = sign * (lift_dense - dense)
    g_target = TWO_PI * (np.floor(g_dense[0] / TWO_PI) + 1.0)
    i = int(np.searchsorted(g_dense, g_target))
    fixed = brentq(
        lambda x: sign * (float(_reference_lift(model, mu, x)) - x) - g_target,
        dense[max(i - 1, 0)], dense[min(i, len(dense) - 1)], xtol=1e-14,
    )
    fixed = float(reduce_angle(fixed))

    def w(theta):
        return sign * float(_reference_lift(model, mu, theta))

    sp = sign * fixed
    k0 = int(np.ceil((w_dense[0] - sp) / TWO_PI))
    targets = sp + TWO_PI * (k0 + np.arange(abs(m)))
    bounds = []
    for t in targets:
        i = int(np.searchsorted(w_dense, t))
        lo, hi = dense[max(i - 1, 0)], dense[min(i, len(dense) - 1)]
        bounds.append(brentq(lambda x, t=t: w(x) - t, lo, hi, xtol=1e-14))
    return np.sort(reduce_angle(np.array(bounds))), float(targets[0])


def _prefix_diameters(angles: np.ndarray, symbols: np.ndarray,
                      n_sym: int) -> list[tuple[int, float]]:
    """[(k, largest diameter of the groups of ``angles`` sharing the first k
    rows of ``symbols``)] up to the first k without a group of two; a
    group's diameter is the full circle minus its largest gap (wrap included)."""
    angles = reduce_angle(angles)
    code = np.zeros(len(angles), dtype=np.int64)
    out: list[tuple[int, float]] = []
    for k in range(1, len(symbols) + 1):
        code = code * n_sym + symbols[k - 1]
        order = np.lexsort((angles, code))
        a, c = angles[order], code[order]
        start = np.r_[True, c[1:] != c[:-1]]
        first = np.flatnonzero(start)
        last = np.r_[first[1:], len(a)] - 1
        multi = last > first
        if not np.any(multi):
            break
        gaps = np.append(np.diff(a), 0.0)
        gaps[last] = (a[first] + TWO_PI) - a[last]
        widest = np.maximum.reduceat(gaps, first)
        out.append((k, float(np.max(TWO_PI - widest[multi]))))
        code[order] = np.cumsum(start) - 1     # group ranks keep the codes small
    return out


def itinerary_semiconjugacy(model: ValidatedModel, mu: float, depth: int = 12,
                            samples: int = 4096, rng_seed: int = 0) -> ItineraryReport:
    """Code attractor orbits by the branches of the degree-m circle factor.

    Each sampled orbit is assigned, at every step, the index of the
    monotone pre-image branch containing its angle.  The report checks
    that this static assignment matches the winding window of the actual
    step (shift consistency), and fits diameter ~ C * rho^depth over the
    groups of samples sharing an itinerary prefix.  Orbits within
    BOUNDARY_TOL of a branch boundary are redrawn, at most
    MAX_RESAMPLE_ROUNDS times.  Raises ValueError unless ``depth`` and
    ``samples`` are integers >= 1.
    """
    depth = require_count("depth", depth, 1)
    samples = require_count("samples", samples, 1)
    m = model.m
    boundaries, t0 = branch_boundaries(model, mu)
    n_sym = abs(m)
    sign = 1.0 if m > 0 else -1.0
    rng = np.random.Generator(np.random.Philox(key=rng_seed))

    # label each arc between consecutive boundaries by its winding window,
    # so arc membership and window index use the same symbol alphabet
    gaps = np.diff(np.concatenate([boundaries, [boundaries[0] + TWO_PI]]))
    mids = boundaries + 0.5 * gaps
    w_mid = sign * np.asarray(_reference_lift(model, mu, mids), dtype=float)
    arc_labels = np.floor((w_mid - t0) / TWO_PI).astype(int) % n_sym

    def draw(count):
        th = rng.uniform(0.0, TWO_PI, count)
        X = model.limit_radial(th) * (1.0 + 0.01 * rng.uniform(-1, 1, count))
        Y = 0.01 * rng.uniform(-1, 1, (model.ydim, count))
        return model.advance(X, Y, th, mu, ITINERARY_TRANSIENT)[:3]

    resampled = 0
    X, Y, th = draw(samples)
    for _ in range(MAX_RESAMPLE_ROUNDS):
        # symbols by arc membership and by the winding window of each step
        sym_arc = np.empty((depth, samples), dtype=int)
        sym_win = np.empty((depth, samples), dtype=int)
        ambiguous = np.zeros(samples, dtype=bool)
        Xc, Yc, thc = X, Y, th
        for step in range(depth):
            dist = np.min(np.abs(angle_diff(thc[:, None], boundaries[None, :])), axis=1)
            ambiguous |= dist < BOUNDARY_TOL
            sym_arc[step] = arc_labels[(np.searchsorted(boundaries, thc, side="right") - 1)
                                       % n_sym]
            Xb, Yb, lift, _ = model.rescaled_step(Xc, Yc, thc, mu)
            sym_win[step] = np.floor((sign * lift - t0) / TWO_PI).astype(int) % n_sym
            Xc, Yc, thc = Xb, Yb, reduce_angle(lift)
        if not np.any(ambiguous):
            break
        idx = np.flatnonzero(ambiguous)
        resampled += idx.size
        Xn, Yn, thn = draw(idx.size)
        X[idx] = Xn
        Y[:, idx] = Yn
        th[idx] = thn
    else:
        raise BranchAmbiguity(
            f"angles within {BOUNDARY_TOL} of a branch boundary after "
            f"{MAX_RESAMPLE_ROUNDS} resampling rounds")

    shift_consistent = bool(np.array_equal(sym_arc, sym_win))

    diam_by_depth = _prefix_diameters(th, sym_arc, n_sym)

    if len(diam_by_depth) >= 3:
        ks = np.array([k for k, _ in diam_by_depth], dtype=float)
        logs = np.log([d for _, d in diam_by_depth])
        slope, intercept = np.polyfit(ks, logs, 1)
        rho, pref = float(np.exp(slope)), float(np.exp(intercept))
    else:
        rho, pref = np.nan, np.nan

    expansion = certified_angular_expansion(model)
    return ItineraryReport(
        n_symbols=n_sym, depth=depth, samples=samples,
        shift_consistent=shift_consistent,
        max_diameter_by_depth=diam_by_depth,
        contraction_ratio=rho, prefactor=pref,
        expansion_lower_bound=expansion,
        boundaries=boundaries, resampled=resampled,
    )


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


@dataclass
class ClassificationRecord:
    """Outcome of the trichotomy for one (model, mu): the attractor label
    plus the supporting condition report and case-specific certificate."""

    label: AttractorLabel
    mu: float
    condition: ConditionReport | None = None
    fixed_point: FixedPointResult | None = None
    curve: InvariantCurve | None = None
    certificate: ConeCertificate | None = None
    reason: str | None = None

    def to_dict(self) -> dict:
        out: dict = {"classification": self.label.value, "mu": self.mu}
        if self.condition is not None:
            out["condition"] = self.condition.to_dict()
        if self.fixed_point is not None:
            out["fixed_point"] = self.fixed_point.to_dict()
        if self.curve is not None:
            out["curve"] = {
                "grid_size": len(self.curve.theta_grid),
                "residual_sup": self.curve.residual_sup,
                "orientation": self.curve.orientation.value,
            }
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_dict()
        if self.reason:
            out["reason"] = self.reason
        return out


def classify_attractor(model: ValidatedModel, mu: float) -> ClassificationRecord:
    """Run the case condition and the case-appropriate computation: a
    Newton fixed point, a graph-transform curve on 2^16 nodes, or a cone
    certificate on 256 angles.

    Returns one of StablePeriodicOrbit / InvariantTorus / KleinBottle /
    Solenoid, or Indeterminate whenever a hypothesis fails or a condition,
    certificate or solver is ``Undecided`` (never a guess; the reason then
    names the exception class).  An EscapedTube propagates.
    """
    m = model.m
    case = case_for_degree(m)
    condition = None
    try:
        condition = check_case(case, model)
        if not condition.verdict:
            return ClassificationRecord(AttractorLabel.INDETERMINATE, mu, condition=condition,
                                        reason="case condition violated")

        if case is CaseTag.BLUE_SKY:
            fp = find_fixed_point(model, mu)
            if not fp.stable:
                return ClassificationRecord(AttractorLabel.INDETERMINATE, mu,
                                            condition=condition, fixed_point=fp,
                                            reason="fixed point not stable")
            return ClassificationRecord(AttractorLabel.STABLE_PERIODIC_ORBIT, mu,
                                        condition=condition, fixed_point=fp)

        if case is CaseTag.TORUS_OR_KLEIN:
            curve = graph_transform_curve(model, mu, 2 ** 16)
            expected = Orientation.PRESERVING if m == 1 else Orientation.REVERSING
            if curve.orientation is not expected:
                return ClassificationRecord(AttractorLabel.INDETERMINATE, mu,
                                            condition=condition, curve=curve,
                                            reason="unexpected orientation")
            label = AttractorLabel.INVARIANT_TORUS if m == 1 else AttractorLabel.KLEIN_BOTTLE
            return ClassificationRecord(label, mu, condition=condition, curve=curve)

        certificate = cone_certify(model, mu)
    except Undecided as exc:
        return ClassificationRecord(AttractorLabel.INDETERMINATE, mu, condition=condition,
                                    reason=f"{type(exc).__name__}: {exc}")
    if not certificate.verdict:
        return ClassificationRecord(AttractorLabel.INDETERMINATE, mu, condition=condition,
                                    certificate=certificate, reason="cone conditions violated")
    return ClassificationRecord(AttractorLabel.SOLENOID, mu, condition=condition,
                                certificate=certificate)
