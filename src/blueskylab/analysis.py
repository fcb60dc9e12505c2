"""Attractor computation and certification for each degree regime.

Degree m = 0: Newton fixed points of the return map and their multipliers.
Degree |m| = 1: graph-transform invariant curves with orientation, the
cross-section traces of an invariant torus (m = 1) or Klein bottle (m = -1).
Degree |m| >= 2: cone-condition certificates of uniform hyperbolicity for
the solid-torus map, Lyapunov spectra, and finite-depth symbolic coding
against the degree-m expanding circle factor.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from .conditions import (
    CaseMismatch,
    CaseTag,
    ConditionReport,
    Inconclusive,
    certified_angular_expansion,
    check_case,
)
from .fourier import TWO_PI, lipschitz_grid_extrema, uniform_grid
from .model import (
    EscapedTube,
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
    "classify_attractors",
    "cone_certify",
    "find_fixed_point",
    "find_fixed_points",
    "graph_transform_curve",
    "itinerary_semiconjugacy",
    "lyapunov_spectrum",
]

LYAPUNOV_FLOOR = -50.0
# the graph transform's trigonometric nodes: the first count, and the cap
# that doubling may reach; the bound on its residual and coefficient tail
SPECTRAL_NODES = 128
SPECTRAL_NODE_CAP = 2 ** 12
CURVE_TOL = 1e-8
# Newton preimages of the graph transform: the step taken as converged, and
# the sweep budget
PREIMAGE_TOL = 1e-13
PREIMAGE_MAX_SWEEPS = 50
# complex exponentials a direct trigonometric evaluation holds at once
TRIG_BLOCK = 2 ** 16
# orbits the Lyapunov cocycle advances together, and the most orbits its
# transient is shared among, so that a larger ensemble shortens no orbit's
# warm-up
LYAPUNOV_ENSEMBLE = 1024
LYAPUNOV_WARMUP_SHARE = 256
# itinerary coding: the distance to a branch boundary below which an orbit
# is redrawn, and the redraw rounds
BOUNDARY_TOL = 1e-9
MAX_RESAMPLE_ROUNDS = 8
# bracketed root solves of the branch boundaries: the bracket width taken as
# converged, and the sections each multisection step cuts a bracket into
ROOT_XTOL = 1e-14
ROOT_SECTIONS = 64
# Newton fixed points: residual tolerance and step budget of each row
NEWTON_TOL = 1e-13
NEWTON_MAX_STEPS = 100
# relative outward rounding of the certified record (256 ulps at 1): its
# floating-point sums may fall a few ulps short of the exact bounds
RECORD_ROUNDING = 2.0 ** -44


class NoConvergence(Undecided, RuntimeError):
    """An iterative solver exhausted its iteration budget, or could not take
    a step (a singular Newton matrix)."""


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
    """Newton iteration for a fixed point of the rescaled return map: the
    one-row ``find_fixed_points``, raising its EscapedTube or NoConvergence.

    Intended for degree m = 0, where the contracting limit map has a
    unique stable fixed point, but runs for any degree.
    """
    result, = find_fixed_points(model, mu)
    if isinstance(result, Exception):
        raise result
    return result


def find_fixed_points(model: ValidatedModel, mus) -> list:
    """Newton fixed points of the rescaled return map at every mu of ``mus``
    (a scalar or a 1-d array), solved together: one batched step per
    iteration for all rows.

    Each row starts two forward steps (onto the attracting core) from the
    limit curve at angle 0 and works on (X, Y, theta-lift) with the angular
    residual wrapped to the circle, using the analytic Jacobian, until its
    residual drops below ``NEWTON_TOL``; that step, at the returned point,
    gives its flight and multipliers, and the row then stays frozen.
    Returns one entry per row: a FixedPointResult, or the exception the
    row ended with, unraised: EscapedTube when its orbit leaves the tube,
    NoConvergence after ``NEWTON_MAX_STEPS`` Newton steps or at a singular
    Newton matrix.  No row stops the others.
    """
    # a 0-d mu goes in as a scalar, so the one-row solve does the scalar
    # map's arithmetic bit for bit
    mus = require_mu(np.asarray(mus, dtype=float)[()])
    shape, n, k = np.shape(mus), model.n, model.ydim
    X, Y, th, seed_flight = model.advance(*model.limit_points(np.zeros(shape)), mus, 2)
    escaped = np.isnan(seed_flight)
    singular = np.zeros(shape, dtype=bool)
    active = ~escaped
    iterations = np.zeros(shape, dtype=int)
    residual = np.full(shape, np.nan)
    flight = np.full(shape, np.nan)
    jac_at = np.full(shape + (n, n), np.nan)
    eye = np.eye(n)
    for iteration in range(1, NEWTON_MAX_STEPS + 1):
        (Xb, Yb, lift, step_flight, jac), step_escaped = model._step(
            X, Y, th, mus, with_jacobian=True)
        escaped |= active & step_escaped
        active &= ~step_escaped
        g = np.concatenate((np.expand_dims(Xb - X, 0), Yb - Y,
                            np.expand_dims(angle_diff(lift, th), 0)))
        with np.errstate(over="ignore"):        # +inf: not converged
            step_residual = np.sqrt(np.sum(g * g, axis=0))
        residual = np.where(active, step_residual, residual)
        done = active & (step_residual < NEWTON_TOL)
        iterations[done] = iteration
        flight = np.where(done, step_flight, flight)
        jac_at[done] = jac[done]
        active &= ~done
        # a singular Newton matrix ends its row; frozen rows solve the identity
        newton = np.where(active[..., None, None], jac - eye, eye)
        stuck = np.linalg.slogdet(newton)[0] == 0.0
        singular |= stuck
        active &= ~stuck
        if not active.any():
            break
        newton[stuck] = eye
        rhs = np.where(active, -g, 0.0)
        step = np.linalg.solve(newton, np.moveaxis(rhs, 0, -1)[..., None])[..., 0]
        X = X + step[..., 0]
        Y = Y + np.moveaxis(step[..., 1 : 1 + k], -1, 0)
        th = reduce_angle(th + step[..., n - 1])

    done = ~(escaped | singular | active)
    multipliers = iter(np.linalg.eigvals(jac_at.reshape(-1, n, n)[done.reshape(-1)]))
    results: list = []
    for index, mu in zip(np.ndindex(shape), np.ravel(mus).tolist()):
        if escaped[index]:
            results.append(EscapedTube(f"orbit left the homoclinic tube at mu={mu!r}"))
        elif singular[index]:
            results.append(NoConvergence(
                f"singular Newton matrix (residual {residual[index]:.3e})"))
        elif active[index]:
            results.append(NoConvergence(
                f"Newton did not reach tol={NEWTON_TOL} in {NEWTON_MAX_STEPS} iterations "
                f"(last residual {residual[index]:.3e})"))
        else:
            results.append(FixedPointResult(
                point=TorusPoint(th[index], X[index], Y[(slice(None),) + index]),
                multipliers=next(multipliers),
                residual=float(residual[index]),
                newton_iterations=int(iterations[index]),
                flight=float(flight[index]),
            ))
    return results


# ---------------------------------------------------------------------------
# invariant curves (degree +-1)
# ---------------------------------------------------------------------------


@dataclass
class InvariantCurve:
    """A closed curve theta -> (X, Y): the graph transform's trigonometric
    polynomial, the interpolant of its values at N uniform nodes (N from
    128 to 4,096, chosen by the solve), whose ``np.fft.rfft`` rows are
    ``coef``.  ``radial_at`` evaluates it; ``radial_values`` samples it at
    ``grid_size`` uniform angles, on which no verdict depends.
    ``theta_grid`` computes the angles on each access, so a caller indexing
    them in a loop should keep a local copy.  ``residual_sup`` is the
    invariance residual: the sup over the solve's N nodes of the distance
    from a node's image to the polynomial there.
    """

    radial_values: np.ndarray      # (grid_size, 1 + ydim), column 0 is X
    residual_sup: float
    orientation: Orientation
    coef: np.ndarray               # (1 + ydim, N/2 + 1) complex, row 0 is X

    @property
    def theta_grid(self) -> np.ndarray:
        return np.arange(len(self.radial_values)) * (TWO_PI / len(self.radial_values))

    @property
    def X(self) -> np.ndarray:
        return self.radial_values[:, 0]

    @property
    def Y(self) -> np.ndarray:
        return self.radial_values[:, 1:]

    def radial_at(self, theta):
        """The polynomial (X, Y) at arbitrary finite angles; shape (..., 1+ydim).
        Raises ValueError for a non-finite angle."""
        theta = np.asarray(theta, dtype=float)
        if not np.all(np.isfinite(theta)):
            raise ValueError("radial_at needs finite angles")
        out = _trig_eval(self.coef, reduce_angle(theta).ravel())
        return out.T.reshape(theta.shape + (len(self.coef),))


def _trig_eval(coef, x):
    """The trigonometric interpolants whose ``np.fft.rfft`` over N uniform
    nodes (N even) are the rows of ``coef``, at the angles ``x`` (1-d);
    shape (rows, x.size).  The Nyquist mode enters as its real cosine, so
    the interpolants are real, and the rows ``1j * k * coef`` give their
    derivatives."""
    n = 2 * (coef.shape[1] - 1)
    k = np.arange(coef.shape[1])
    scaled = coef * (np.where((k == 0) | (k == n // 2), 1.0, 2.0) / n)
    out = np.empty((len(coef), len(x)))
    step = max(1, TRIG_BLOCK // len(k))
    for a in range(0, len(x), step):
        xs = x[a : a + step]
        # e^{ikx} by doubling: rows [h, 2h) are rows [0, h) times
        # e^{ihx} = e^{i(h-1)x} e^{ix}, one exponential per angle
        e = np.empty((len(k), len(xs)), dtype=complex)
        e[0] = 1.0
        e[1] = np.exp(1j * xs)
        h = 2
        while h < len(k):
            top = e[h : 2 * h]
            np.multiply(e[: len(top)], e[h - 1] * e[1], out=top)
            h *= 2
        out[:, a : a + step] = (scaled @ e).real
    return out


def _trig_resample(coef, size):
    """The interpolants of ``_trig_eval`` at the ``size`` uniform angles
    i * 2 pi / size, C-contiguous (size, rows): one inverse transform down
    the columns, which ``irfft`` pads with zeros itself, or direct
    evaluation below their node count."""
    n = 2 * (coef.shape[1] - 1)
    if size < n:
        return np.ascontiguousarray(_trig_eval(coef, np.arange(size) * (TWO_PI / size)).T)
    spectrum = coef.T.copy()
    spectrum[n // 2] *= 0.5 if size > n else 1.0   # the Nyquist cosine splits between +-n/2
    out = np.fft.irfft(spectrum, size, axis=0)
    out *= size / n
    return out


def _preimages(g_coef, w, targets, phi):
    """The angles phi with phi + g(phi) = targets (mod 2 pi), for the
    interpolant g of ``g_coef`` on the uniform nodes theta: Newton's method
    from ``phi``, or without one from the linear inverse of the node
    values ``w`` = theta + g (increasing, closing at w[0] + 2 pi).
    NotACircleMap where 1 + g' is not positive; NoConvergence after
    PREIMAGE_MAX_SWEEPS sweeps."""
    if phi is None:
        theta = np.arange(len(w)) * (TWO_PI / len(w))
        phi = np.interp(targets + TWO_PI * np.ceil((w[0] - targets) / TWO_PI),
                        np.append(w, w[0] + TWO_PI), np.append(theta, TWO_PI))
    rows = np.stack([g_coef, 1j * np.arange(len(g_coef)) * g_coef])
    for _ in range(PREIMAGE_MAX_SWEEPS):
        g, slope = _trig_eval(rows, phi)
        if not np.all(slope > -1.0):
            raise NotACircleMap("angular component is not strictly monotone along the curve")
        step = angle_diff(phi + g, targets) / (1.0 + slope)
        phi = phi - step
        if np.abs(step).max() <= PREIMAGE_TOL:
            return phi
    raise NoConvergence(f"Newton preimages of {len(w)} nodes did not settle in "
                        f"{PREIMAGE_MAX_SWEEPS} sweeps")


def graph_transform_curve(model: ValidatedModel, mu: float,
                          grid_size: int = 1024) -> InvariantCurve:
    """Graph transform for the attracting invariant curve at degree |m| = 1.

    The iterate is held as rows X, Y... at N uniform nodes and stands for
    their trigonometric interpolant, starting from the limit curve
    (X, Y) = (alpha(theta)^nu, 0).  Each step maps the nodes with one
    ``rescaled_step``, finds each node's preimage under the angular lift by
    Newton's method on the interpolant of g = m * lift - theta, warm-started
    from the previous step, and takes the interpolant of the mapped rows
    there.  The lift has degree m, so g is periodic and the curve's circle
    map preserves orientation for m = 1 and reverses it for m = -1.  It
    must be strictly monotone at the nodes, with 1 + g' positive at the
    preimages and certified positive on the whole circle (NotACircleMap).
    N starts at 128, or at the power of two that reaches 4x the series'
    largest degree, and doubles while the residual stops falling above
    CURVE_TOL or the top quarter of the iterate's coefficients stays above
    CURVE_TOL; past 2^12 nodes, NoConvergence.

    ``grid_size`` is the output sampling only, and no verdict depends on
    it: the curve keeps the solve's coefficients and the polynomial at
    ``grid_size`` uniform angles (one zero-padded inverse FFT, or direct
    evaluation below N nodes), and ``residual_sup`` is its residual at the
    solve's N nodes (see InvariantCurve).

    Raises ValueError unless ``grid_size`` is a positive integer.
    """
    if abs(model.m) != 1:
        raise CaseMismatch(f"graph transform requires |m| = 1, got m={model.m}")
    size = require_count("grid_size", grid_size, 1)

    sign = float(model.m)
    n = SPECTRAL_NODES
    while n < 4 * model._bank.degree:
        n *= 2
    coef = None
    residual = tail = np.inf
    while n <= SPECTRAL_NODE_CAP:
        theta = np.arange(n) * (TWO_PI / n)
        if coef is None:
            radial = np.vstack(model.limit_points(theta)[:2])
        else:
            radial = _trig_resample(coef, n).T
        preimage = None
        previous = np.inf
        while True:
            Xb, Yb, lift, _ = model.rescaled_step(radial[0], radial[1:], theta, mu)
            w = sign * lift
            if not (np.all(np.diff(w) > 0.0) and w[-1] < w[0] + TWO_PI):
                raise NotACircleMap("angular component is not strictly monotone along the curve")
            mapped = np.concatenate([Xb[None], Yb])
            coef = np.fft.rfft(radial)
            g_coef = np.fft.rfft(w - theta)
            defect = mapped - _trig_eval(coef, reduce_angle(lift))
            residual = float(np.sqrt(np.sum(defect * defect, axis=0)).max())
            tail = float(np.abs(coef[:, 3 * n // 8 :]).max()) * 2.0 / n
            if residual < CURVE_TOL and tail < CURVE_TOL:
                _certify_circle_map(g_coef)
                orientation = Orientation.PRESERVING if sign > 0 else Orientation.REVERSING
                return InvariantCurve(_trig_resample(coef, size), residual, orientation, coef)
            if tail >= CURVE_TOL or residual >= previous:
                break
            previous = residual
            preimage = _preimages(g_coef, w, sign * theta, preimage)
            radial = _trig_eval(np.fft.rfft(mapped), preimage)
        n *= 2
    raise NoConvergence(f"graph transform residual {residual:.3e} (coefficient tail {tail:.3e}) "
                        f"above tol={CURVE_TOL} at the cap of {SPECTRAL_NODE_CAP} nodes")


def _certify_circle_map(g_coef) -> float:
    """A certified positive lower bound of 1 + g' over the circle for the
    lift's ``g_coef``: ``lipschitz_grid_extrema`` on the row ``1j * k * g_coef``
    with the Lipschitz bound sum_k w_k k^2 |g_k|, where w_k are
    ``_trig_eval``'s weights (1/N at k = N/2, 2/N below; k = 0 adds 0).
    Each block t of the loop is a uniform grid from t[0], so its values are
    one inverse FFT of the row times e^{i k t[0]}, exact (no aliasing) for
    N <= SPECTRAL_NODE_CAP = DEFAULT_GRID.
    NotACircleMap where a grid angle has 1 + g' < 0, or at the grid cap
    (where a zero of 1 + g' on a grid angle leaves it undecided)."""
    k = np.arange(len(g_coef))
    slope = (1j * k * g_coef)[None]
    lip = float(np.sum(np.where(k == k[-1], 1.0, 2.0) * k * k * np.abs(g_coef))) / (2 * k[-1])
    vmin, _, grid, inflation, monotone = lipschitz_grid_extrema(
        lambda t: 1.0 + _trig_resample(slope * np.exp(1j * k * t[0]), len(t))[:, 0], lip)
    if monotone is False:
        raise NotACircleMap(f"the curve's circle map folds: min 1 + g' = {vmin:.3e} "
                            f"on {grid} angles")
    if monotone is None:
        raise NotACircleMap(f"1 + g' > 0 undecided at the cap of {grid} angles: "
                            f"min {vmin:.3e}, inflation {inflation:.3e}")
    return vmin - inflation


@dataclass
class AnnulusDiagnostic:
    """The square-root contraction inequality behind the invariant-curve case.

    ``lhs`` is 1 - sup|dp/dr| * sup|(dq/dtheta)^-1| and ``rhs`` is
    2 sqrt(sup|(dq/dtheta)^-1| * sup|dq/dr| * sup|dp/dtheta (dq/dtheta)^-1|).
    The fields are the certified record's worst-case bounds over the whole
    trapping torus (``pr``, ``ptheta``, 1 / ``qtheta_lower`` and ``qr``),
    not sample maxima, so ``satisfied`` (lhs > rhs) rests on bounds alone.
    Diagnostic only: no label reads it, and the certified angular condition
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
    """Evaluate the annulus contraction inequality at degree |m| = 1 from
    the certified record of the trapping torus (``_certified_record``).

    Unlike the solenoid cone conditions this does not need angular
    expansion, so sup|(dq/dtheta)^-1| may exceed one; the inequality holds
    whenever the radial contraction beats the cross terms, which is the
    regime where the graph transform converges to a smooth curve.  Raises
    NotACircleMap where the certified angular-derivative bound is not
    positive, and Inconclusive where the curve condition is undecided.
    """
    if abs(model.m) != 1:
        raise CaseMismatch(f"annulus diagnostic requires |m| = 1, got m={model.m}")
    record = _certified_record(model, mu, model.trapping_radius(mu))
    qt_inv = 1.0 / record["qtheta_lower"]
    lhs = 1.0 - qt_inv * record["pr"]
    rhs = 2.0 * float(np.sqrt(qt_inv * record["qr"] * record["cross_ptheta_bar"]))
    return AnnulusDiagnostic(record["pr"], record["ptheta"], qt_inv, record["qr"], lhs, rhs)


def _trapping_jacobians(model: ValidatedModel, mu: float, grid: int, K: float):
    """Return-map derivatives at the trapping samples of the uniform grid
    of ``grid`` angles, one (M_i, n, n) block per block of angles.  ``K``
    is the trapping radius at ``mu``."""
    for theta in uniform_grid(grid):
        th, X, Y = model.trapping_samples(theta, K)
        yield model.rescaled_step(X, Y, th, mu, with_jacobian=True)[4]


def _max_operator_norm(blocks) -> float:
    """Largest operator norm over stacked (M, r, r) ``blocks`` (0 when
    r = 0), equal to the maximum of their stacked SVD's top values.

    The Frobenius norm bounds the operator norm from above, and the block
    with the largest Frobenius norm gives an exact lower bound for the
    maximum, so only the blocks whose Frobenius norm (times 1 + 1e-9, for
    rounding) reaches that bound can hold it, and only they are decomposed.
    """
    if not blocks.shape[1]:
        return 0.0
    frobenius = np.sqrt(np.einsum("mij,mij->m", blocks, blocks))
    lower = np.linalg.svd(blocks[np.argmax(frobenius)], compute_uv=False)[0]
    candidates = blocks[frobenius * (1.0 + 1e-9) >= lower]
    return float(np.max(np.linalg.svd(candidates, compute_uv=False)[:, 0]))


_SAMPLE_MAXIMA = ("sup_pr", "sup_ptheta", "sup_qtheta_inv", "sup_qr",
                  "cross_sup_pr", "cross_sup_ptheta_bar", "cross_sup_qr")


def _sample_maxima(jacobians) -> tuple[dict, int]:
    """The sample maxima of ``certify_jacobian_field``'s blocks, named as
    the ConeCertificate fields (``_SAMPLE_MAXIMA``), and the sample count.
    Each block's maxima are computed once and reduced with np.maximum,
    which is exact, so they are those of one block holding every sample.
    A block is released before the next is drawn, so a generator of blocks
    holds one at a time."""
    top, count, dim = None, 0, None
    for jac in jacobians:
        jac = np.asarray(jac, dtype=float)
        dim = dim or (jac.shape[1] if jac.ndim == 3 else None)
        if not dim or jac.shape[1:] != (dim, dim):
            raise ValueError("jacobians must be (M, dim, dim) blocks of one field")
        if len(jac):
            block_top = _block_maxima(jac)
            top = block_top if top is None else np.maximum(top, block_top)
            count += len(jac)
        del jac     # before the generator computes the next block
    if not count:
        raise ValueError("jacobians must hold at least one sample")
    return dict(zip(_SAMPLE_MAXIMA, top.tolist())), count


def _block_maxima(jac) -> np.ndarray:
    """``_SAMPLE_MAXIMA`` over one nonempty (M, r + 1, r + 1) block; the
    cross form solves theta from (r, theta_bar).  Its temporaries die on
    return."""
    r = jac.shape[1] - 1
    p_r, p_t, q_r, q_t = jac[:, :r, :r], jac[:, :r, r], jac[:, r, :r], jac[:, r, r]
    if np.any(q_t == 0.0):
        raise NotACircleMap("vanishing angular derivative at a sample")
    inv_qt = 1.0 / q_t
    abs_inv = np.abs(inv_qt)
    pt_norm, qr_norm = np.linalg.norm(p_t, axis=1), np.linalg.norm(q_r, axis=1)
    cross_pr = p_r - np.einsum("mi,mj->mij", p_t, q_r * inv_qt[:, None])
    return np.array([
        _max_operator_norm(p_r), np.max(pt_norm), np.max(abs_inv), np.max(qr_norm),
        _max_operator_norm(cross_pr), np.max(pt_norm * abs_inv), np.max(qr_norm * abs_inv)])


def _reference_lift(model: ValidatedModel, mu: float, theta):
    """Angular lift along the limit curve (X, Y) = (alpha^nu, 0)."""
    return model.rescaled_step(*model.limit_points(theta), mu)[2]


def circle_degree(model: ValidatedModel, mu: float) -> int:
    """Winding number of the angular image along the limit curve: the
    change over 2*pi of the unreduced angular lift, read at the loop's two
    ends 0 and 2*pi only; equals the model degree m for every valid
    configuration."""
    lift = _reference_lift(model, mu, np.array([0.0, TWO_PI]))
    return int(np.round((lift[-1] - lift[0]) / TWO_PI))


# ---------------------------------------------------------------------------
# cone certification (degree |m| >= 2)
# ---------------------------------------------------------------------------


@dataclass
class ConeCertificate:
    """Sup-norms of the solid-torus map partials and the cone verdict.

    The ``sup_*`` and ``cross_sup_*`` fields are maxima over the samples,
    kept as diagnostics; the verdict uses only the ``certified`` record
    (worst-case bounds over the whole trapping region) so that a true
    verdict has positive certified margins.  ``L_interval`` is the
    certified admissible cone aperture range, computed from those bounds,
    with +inf for an unbounded upper end and None when empty.  The sample
    maxima are None where a classification's record decides the verdict.
    """

    sup_pr: float | None
    sup_ptheta: float | None
    sup_qtheta_inv: float | None
    sup_qr: float | None
    cross_sup_pr: float | None
    cross_sup_ptheta_bar: float | None
    cross_sup_qr: float | None
    L_interval: tuple[float, float] | None
    verdict: bool
    certified: dict = field(default_factory=dict, repr=False)

    @property
    def expansion_lower_bound(self) -> float:
        """Certified lower bound on the angular derivative |dq/dtheta|."""
        return self.certified["qtheta_lower"]

    def to_dict(self) -> dict:
        interval = self.L_interval
        if interval is not None:
            interval = [interval[0], None if np.isinf(interval[1]) else interval[1]]
        return {**asdict(self), "L_interval": interval}


def _cone_checks(pr, ptheta, qt_inv, qr_over_qt, cross_pr, cross_pt):
    """Whether the forward and cross-form conditions hold with a nonempty
    interval of admissible cone apertures cross_pt/(1-cross_pr) < L <
    (1-qt_inv)/qr_over_qt, and that interval (None when empty).  The
    forward terms |(dq/dtheta)^-1| and |dq/dr| / |dq/dtheta| are also the
    cross form's |dtheta/dtheta_bar| and |dtheta/dr|, so both conditions
    read ``qt_inv`` and ``qr_over_qt``."""
    c_forward = pr < 1.0 and (1.0 - pr) * (1.0 - qt_inv) > ptheta * qr_over_qt
    c_cross = cross_pr < 1.0 and qt_inv < 1.0 and \
        (1.0 - cross_pr) * (1.0 - qt_inv) >= cross_pt * qr_over_qt
    interval = None
    if cross_pr < 1.0 and qt_inv < 1.0:
        low = cross_pt / (1.0 - cross_pr)
        high = np.inf if qr_over_qt == 0.0 else (1.0 - qt_inv) / qr_over_qt
        if low < high:
            interval = (float(low), float(high))
    return bool(c_forward and c_cross and interval is not None), interval


def _record_checks(record: dict):
    """``_cone_checks`` on a certified record: the verdict and interval."""
    qt = record["qtheta_lower"]
    return _cone_checks(record["pr"], record["ptheta"], 1.0 / qt, record["qr"] / qt,
                        record["cross_pr"], record["cross_ptheta_bar"])


def certify_jacobian_field(jacobians, bounds: dict) -> ConeCertificate:
    """Cone certificate of a solid-torus map from its certified record,
    with sampled derivatives to tell a violated condition from an
    undecided one.

    Parameters
    ----------
    jacobians : iterable of arrays (M_i, dim, dim)
        Blocks of one field of derivatives d(r_bar, theta_bar)/d(r, theta)
        at sample points, with the angular coordinate LAST; the map must be
        written r_bar = p(r, theta), theta_bar = q(r, theta).  The blocks
        are folded one at a time, so a generator of blocks holds one in
        memory.  A bare (M, dim, dim) array is not a field of blocks: its
        items are (dim, dim) and fail the block shape rule.
    bounds : dict
        The certified record over the whole region, as
        ``_certified_record`` returns it: upper bounds ``pr``, ``ptheta``,
        ``qr``, ``cross_pr``, ``cross_ptheta_bar`` and the lower bound
        ``qtheta_lower`` of |dq/dtheta|.

    The verdict is True only when this record satisfies the forward and
    cross-form conditions with a nonempty aperture interval.  Otherwise
    the sample maxima decide: False when they violate the conditions too,
    and Inconclusive when they satisfy them.  Raises ValueError for a block
    of the wrong shape or a field without samples, and NotACircleMap where
    a sampled dq/dtheta vanishes.
    """
    sups, count = _sample_maxima(jacobians)
    cert = dict(bounds)
    verdict, interval = _record_checks(cert)
    if not verdict and _cone_checks(
            sups["sup_pr"], sups["sup_ptheta"], sups["sup_qtheta_inv"], sups["cross_sup_qr"],
            sups["cross_sup_pr"], sups["cross_sup_ptheta_bar"])[0]:
        qt_inv, qr_over_qt = 1.0 / cert["qtheta_lower"], cert["qr"] / cert["qtheta_lower"]
        margin = (1.0 - cert["cross_pr"]) * (1.0 - qt_inv) - cert["cross_ptheta_bar"] * qr_over_qt
        raise Inconclusive(CaseTag.SOLENOID, margin, None, count)
    return ConeCertificate(**sups, L_interval=interval, verdict=verdict, certified=cert)


@np.errstate(over="ignore", invalid="ignore")
def _certified_record(model: ValidatedModel, mu: float, K: float) -> dict:
    """Worst-case bounds of the return-map partials over the trapping torus,
    the one record behind the cone (|m| >= 2) and the annulus (|m| = 1).

    Built from the model's profile bounds (``sup_bounds``,
    ``deriv_sup_bounds``), the certified minimum of alpha, and the certified
    angular expansion read off the case report; over {|X - alpha^nu| <= K,
    |Y| <= K} every bound dominates the true supremum, and ``qtheta_lower``
    lies below the infimum of |dq/dtheta|, each rounded outward by the
    relative ``RECORD_ROUNDING``.  Computed in float64, where an overflow
    gives inf; returns Python floats.  Raises NotExpandingInTheta when
    ``qtheta_lower`` <= 1 at |m| >= 2, NotACircleMap when it is <= 0,
    Undecided naming its first value that is not finite, and Inconclusive
    wherever the case condition is undecided.
    """
    nu, bg, d, gamma, m = model.nu, model.beta_over_gamma, model.d, model.gamma, model.m
    k = model.ydim
    a_hi, _, fx, hx, fy, hy, _ = model.sup_bounds
    a1, _, fx1, hx1, fy1, hy1, g01 = model.deriv_sup_bounds
    a_lo = model.alpha_min
    x_abs, c_max, delta, u_lo, u_hi, y0_max = model._excursion_bounds(mu, K)
    mu = np.float64(mu)
    mu_nu = mu ** nu
    c_y = mu ** (bg - nu)
    d_pow = d ** (1.0 - nu)
    fy1_norm = float(np.sqrt(np.sum(fy1 ** 2)))
    ct_max = d_pow * fx1 * x_abs + fy1_norm * K
    ut_max = a1 + mu ** (nu - 1.0) * ct_max

    y0t_max = g01 + mu_nu * (d_pow * fy1 * x_abs + hy1 * K)

    # radial block, entrywise bounds -> Frobenius dominates the operator norm
    w_hi = nu * u_hi ** (nu - 1.0) * mu ** (nu - 1.0)
    row_x = np.concatenate(([w_hi * d_pow * fx], w_hi * fy))
    b_pr_sq = float(np.sum(row_x ** 2))
    v_hi = c_y * bg * u_hi ** (bg - 1.0) * mu ** (nu - 1.0)
    q_hi = c_y * u_hi ** bg
    for i in range(k):
        row = np.concatenate((
            [v_hi * d_pow * fx * y0_max[i] + q_hi * mu_nu * d_pow * fy[i]],
            v_hi * fy * y0_max[i],
        ))
        row[1 + i] += q_hi * mu_nu * hy[i]
        b_pr_sq += float(np.sum(row ** 2))
    b_pr = float(np.sqrt(b_pr_sq))

    w_th = nu * u_hi ** (nu - 1.0) * ut_max
    y_th = v_hi / mu ** (nu - 1.0) * ut_max * y0_max + q_hi * y0t_max
    b_ptheta = float(np.sqrt(w_th ** 2 + np.sum(y_th ** 2)))

    qr_x = mu_nu * d_pow * hx + mu ** (nu - 1.0) * d_pow * fx / (gamma * u_lo)
    qr_y = mu_nu * hy + mu ** (nu - 1.0) * fy / (gamma * u_lo)
    b_qr = float(np.sqrt(qr_x ** 2 + np.sum(qr_y ** 2)))

    # angular derivative: m + s(theta) plus bounded corrections
    hy1_sum = float(np.sqrt(np.sum(hy1 ** 2)))
    corr = mu_nu * d_pow * hx1 * x_abs + mu_nu * hy1_sum * K \
        + mu ** (nu - 1.0) * (a1 * c_max + a_hi * ct_max) / (gamma * a_lo * u_lo)
    qtheta_lo = (certified_angular_expansion(model) - corr) * (1.0 - RECORD_ROUNDING)
    if abs(m) >= 2 and qtheta_lo <= 1.0:
        raise NotExpandingInTheta(f"certified angular-derivative lower bound {qtheta_lo:.6g} <= 1")
    if qtheta_lo <= 0.0:
        raise NotACircleMap(f"certified angular-derivative lower bound {qtheta_lo:.6g} <= 0")
    up = 1.0 + RECORD_ROUNDING
    b_pr, b_ptheta, b_qr = b_pr * up, b_ptheta * up, b_qr * up
    record = {
        "pr": b_pr,
        "ptheta": b_ptheta,
        "qr": b_qr,
        "cross_pr": (b_pr + b_ptheta * b_qr / qtheta_lo) * up,
        "cross_ptheta_bar": b_ptheta / qtheta_lo * up,
        "qtheta_lower": qtheta_lo,
    }
    bad = next((key for key, value in record.items() if not np.isfinite(value)), None)
    if bad is not None:
        raise Undecided(f"certified record not finite at mu={float(mu)!r}: {bad} = {record[bad]}")
    return {key: float(value) for key, value in record.items()}


def cone_certify(model: ValidatedModel, mu: float, grid: int = 256) -> ConeCertificate:
    """Cone-condition certificate of uniform hyperbolicity at degree |m| >= 2.

    Samples the trapping solid torus (``grid`` angles times the core and
    the 2(n-1) radial face centres), computes the analytic return-map
    derivatives, and checks the forward and cross-form inequalities.  The
    verdict and ``L_interval`` use worst-case upper bounds over the whole
    region, so a true verdict has positive certified margins; the samples
    only tell a violated condition (False) from an Inconclusive one.  The
    samples stream through the certificate one block of angles at a time,
    so memory does not grow with ``grid`` (an integer >= 1).
    """
    if abs(model.m) < 2:
        raise CaseMismatch(f"cone certification requires |m| >= 2, got m={model.m}")
    require_count("grid", grid, 1)
    K = model.trapping_radius(mu)
    return certify_jacobian_field(_trapping_jacobians(model, mu, grid, K),
                                  _certified_record(model, mu, K))


# ---------------------------------------------------------------------------
# Lyapunov spectrum
# ---------------------------------------------------------------------------


@dataclass
class LyapunovSpectrum:
    """QR-cocycle averages over an ensemble of orbits, sorted descending.

    Directions whose growth rate falls below -50 (total contraction to
    numerical zero, e.g. vanishing couplings) are reported as -inf.
    ``orbit_length`` is the number of averaged returns, summed over the
    ensemble, and ``transient_discarded`` the transient asked for, shared
    among at most 256 orbits: each orbit discards ``ceil(transient /
    min(256, B))`` returns whatever the ensemble size ``B``.  Each orbit
    rounds its share of either up to a whole return.
    ``confidence_halfwidth`` is 1.96 times the across-orbit standard error
    of the top exponent (nan with a single orbit).
    """

    exponents: list[float]
    orbit_length: int
    transient_discarded: int
    confidence_halfwidth: float

    @property
    def top(self) -> float:
        return self.exponents[0]

    def to_dict(self) -> dict:
        return {**asdict(self),
                "exponents": [e if np.isfinite(e) else None for e in self.exponents]}


def _reorthonormalize(J, Q):
    """One return of the QR cocycle by two-pass classical Gram-Schmidt
    (CGS2): the orthonormal frame of the columns of J Q and their
    ``log|R_jj|``.  Component-major: ``J`` is (n, n, B), ``J[i, j]`` the
    entry (i, j) of the B matrices in one contiguous row of B <=
    ``LYAPUNOV_ENSEMBLE`` = 1,024 values (8 n^2 B bytes in all, about
    400 KB at n = 7), and the frames are (column, component, B).  A column left exactly zero gets
    -inf and becomes ``e_i``, ``i = argmin_i sum_k Q[k, i]**2`` over the
    earlier columns, projected once (its norm stays >= 1/sqrt(n); the
    pass is a third, harmless one for the other orbits); a column zero on
    every orbit skips its two passes.  NaN stays NaN."""
    V = np.einsum("ijb,kjb->kib", J, Q)
    log_r = np.empty((len(V), V.shape[2]))
    with np.errstate(divide="ignore"):
        for k, v in enumerate(V):
            P = V[:k]
            if k and v.any():
                for _ in range(2):
                    v -= np.einsum("kib,kb->ib", P, np.einsum("kib,ib->kb", P, v))
            norm = np.sqrt(np.einsum("ib,ib->b", v, v))
            log_r[k] = np.log(norm)
            dead = norm == 0.0
            if dead.any():
                i = np.argmin(np.einsum("kib,kib->ib", P, P), axis=0)
                np.copyto(v, i == np.arange(len(v))[:, None], where=dead)
                v -= np.einsum("kib,kb->ib", P, np.einsum("kib,ib->kb", P, v))
                norm = np.sqrt(np.einsum("ib,ib->b", v, v))
            v /= norm
    return V, log_r


def _ensemble_start(model: ValidatedModel, count: int):
    """``count`` points (X, Y, theta) on the limit curve (alpha^nu, 0) at
    the equally spaced angles ``0.5 + 2*pi*j/count``."""
    return model.limit_points(reduce_angle(0.5 + TWO_PI * np.arange(count) / count))


def lyapunov_spectrum(model: ValidatedModel, mu: float, iterations: int,
                      transient: int = 1000) -> LyapunovSpectrum:
    """Lyapunov exponents of the return map by ensemble QR cocycle averaging.

    ``B = min(LYAPUNOV_ENSEMBLE, iterations)`` orbits start on the limit
    curve at the equally spaced angles ``0.5 + 2*pi*j/B`` and are advanced
    together, one ``rescaled_step`` call per return.  ``transient`` is
    shared among at most ``LYAPUNOV_WARMUP_SHARE`` = 256 orbits: each
    orbit first discards ``ceil(transient / min(256, B))`` returns that
    already evolve its orthonormal frame, so the averages carry no
    initial-alignment bias, and a larger ensemble shortens no orbit's
    warm-up.  The orbits start on the attractor's limit curve, where the
    frames align within a few returns.  Then the analytic Jacobians are
    accumulated in the QR cocycle of Benettin et al. (Meccanica 15, 1980),
    one batched two-pass classical Gram-Schmidt (CGS2; Giraud et al.,
    Numer. Math. 101, 87, 2005) per return; a column that comes out
    exactly zero counts -inf and is completed (``_reorthonormalize``).
    The contracting exponents are at rounding level, where CGS2 and
    Householder QR part by up to 5e-4, so the tests' tolerances, not bit
    identity, are the contract.  Exactly ``iterations`` returns are
    averaged: ``ceil(iterations / B)`` per orbit, the last step counting
    only the first orbits.  On the uniformly hyperbolic solenoid the
    ensemble average equals the time average along one orbit.  Nothing is
    random, so repeated calls give bit-identical exponents.

    Raises ValueError unless ``iterations`` >= 1 and ``transient`` >= 0
    are integers, and for a non-finite or non-positive ``mu``; EscapedTube
    if any orbit escapes, and FloatingPointError if a growth rate comes
    out NaN.
    """
    iterations = require_count("iterations", iterations, 1)
    transient = require_count("transient", transient, 0)
    require_mu(mu)
    B = min(LYAPUNOV_ENSEMBLE, iterations)
    warmup = -(-transient // min(LYAPUNOV_WARMUP_SHARE, B))
    steps = -(-iterations // B)
    last = iterations - B * (steps - 1)

    X, Y, th = _ensemble_start(model, B)
    Q = np.broadcast_to(np.eye(model.n)[:, :, None], (model.n, model.n, B))
    acc = np.zeros((model.n, B))
    for step in range(warmup + steps):
        X, Y, lift, _, jac = model.rescaled_step(X, Y, th, mu, with_jacobian=True)
        th = reduce_angle(lift)
        Q, log_r = _reorthonormalize(np.moveaxis(jac, (-2, -1), (0, 1)), Q)
        if step >= warmup:
            counted = last if step == warmup + steps - 1 else B
            acc[:, :counted] += log_r[:, :counted]

    rates = acc.sum(axis=1) / iterations
    if np.any(np.isnan(rates)):
        raise FloatingPointError(f"NaN Lyapunov growth rate at mu={mu!r}")
    order = np.argsort(rates)[::-1]
    exponents = [float(r) if r >= LYAPUNOV_FLOOR else -np.inf for r in rates[order]]

    counts = np.full(B, steps - 1)
    counts[:last] += 1
    top_orbits = acc[order[0]] / counts
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
    """Finite-depth symbolic coding over the degree-m expanding circle
    factor of ``samples`` orbits drawn in the trapping torus, each past its
    certified transient (Undecided where no contraction is certified).

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
    resampled: int

    def to_dict(self) -> dict:
        return {**asdict(self),
                "max_diameter_by_depth": [list(p) for p in self.max_diameter_by_depth]}


def _bracketed_roots(g, targets, nodes, values):
    """The x with g(x) = targets, each bracketed between consecutive
    ``nodes`` by the samples ``values`` = g(nodes) (increasing) and refined
    together by multisection: each step calls the vectorised ``g`` once, on
    the ROOT_SECTIONS - 1 interior points of every bracket, and keeps the
    section ending at the first point at or above the target.  The step
    count is fixed beforehand, so that the widest bracket shrinks below
    ROOT_XTOL; the brackets' midpoints are returned.  A root on a bracket
    end, or on a section point, comes back as that point.  NotACircleMap
    where the samples do not change sign about a target.
    """
    targets = np.asarray(targets, dtype=float)
    i = np.searchsorted(values, targets)
    below, above = np.maximum(i - 1, 0), np.minimum(i, len(nodes) - 1)
    f_lo, f_hi = values[below] - targets, values[above] - targets
    if np.any(np.sign(f_lo) * np.sign(f_hi) > 0.0):
        raise NotACircleMap("the angular lift does not bracket a branch target")
    lo = np.where(f_hi == 0.0, nodes[above], nodes[below])
    hi = np.where(f_lo == 0.0, nodes[below], nodes[above])
    rows = np.arange(len(targets))
    sections = np.arange(1, ROOT_SECTIONS) / ROOT_SECTIONS
    widest = max(float(np.max(hi - lo)), ROOT_XTOL)
    for _ in range(int(np.ceil(np.log(widest / ROOT_XTOL) / np.log(ROOT_SECTIONS)))):
        x = lo[:, None] + (hi - lo)[:, None] * sections
        f = g(x.ravel()).reshape(x.shape) - targets[:, None]
        edges = np.column_stack((lo, x, hi))
        f = np.column_stack((f, np.full(len(rows), np.inf)))   # the upper end is above
        j = np.argmax(f >= 0.0, axis=1)
        hi = edges[rows, j + 1]
        lo = np.where(f[rows, j] == 0.0, hi, edges[rows, j])
    return 0.5 * (lo + hi)


def branch_boundaries(model: ValidatedModel, mu: float) -> tuple[np.ndarray, float]:
    """Branch cells of the degree-m angular factor along the limit curve.

    The boundaries are the |m| pre-images of a fixed point of the angular
    circle map.  A fixed point (rather than an arbitrary reference angle)
    makes the partition Markov: every boundary maps onto the fixed point,
    itself a boundary, so the set of angles sharing a depth-k itinerary is
    a single arc contracting at the inverse expansion rate.

    The signed lift is sampled at 4,096 + 1 angles over one turn, where it
    must be strictly increasing (NotACircleMap); the samples bracket the
    fixed point and then the |m| pre-images.  Each stage is one vectorised
    bracketed solve (``_bracketed_roots``: multisection, one
    ``rescaled_step`` call per step on the ROOT_SECTIONS - 1 interior
    points of every bracket) down to a bracket width of ROOT_XTOL = 1e-14.

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
    fixed, = _bracketed_roots(lambda x: sign * (_reference_lift(model, mu, x) - x),
                              [g_target], dense, g_dense)
    fixed = float(reduce_angle(fixed))

    sp = sign * fixed
    k0 = int(np.ceil((w_dense[0] - sp) / TWO_PI))
    targets = sp + TWO_PI * (k0 + np.arange(abs(m)))
    bounds = _bracketed_roots(lambda x: sign * _reference_lift(model, mu, x),
                              targets, dense, w_dense)
    return np.sort(reduce_angle(bounds)), float(targets[0])


def _prefix_diameters(angles: np.ndarray, symbols: np.ndarray,
                      n_sym: int) -> list[tuple[int, float]]:
    """[(k, largest diameter of the groups of ``angles`` sharing the first k
    rows of ``symbols``)] up to the first k without a group of two; a
    group's diameter is the full circle minus its largest gap (wrap included).
    Sorted by angle once, then stably by each depth's code: groups keep angle order."""
    angles = reduce_angle(angles)
    order = np.argsort(angles, kind="stable")
    code = np.zeros(len(angles), dtype=np.int64)
    out: list[tuple[int, float]] = []
    for k in range(1, len(symbols) + 1):
        code = code * n_sym + symbols[k - 1, order]
        regroup = np.argsort(code, kind="stable")
        order, c = order[regroup], code[regroup]
        a = angles[order]
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
        code = np.cumsum(start) - 1     # group ranks, in ``order``, keep the codes small
    return out


def itinerary_semiconjugacy(model: ValidatedModel, mu: float, depth: int = 12,
                            samples: int = 4096, rng_seed: int = 0) -> ItineraryReport:
    """Code attractor orbits by the branches of the degree-m circle factor.

    The orbits start uniformly in the trapping torus of radius K =
    ``trapping_radius(mu)`` and discard the fewest t >= 1 returns with
    2 sqrt(2) K cross_pr^t <= 2^-52: each return contracts the fiber over
    an image angle, 2 sqrt(2) K across, by the certified cross-form rate
    ``cross_pr`` (``_certified_record``; cone fields, Katok and Hasselblatt
    1995, 6.2).  At every step each orbit gets the index of the monotone
    pre-image branch containing its angle; the report checks that this
    matches the winding window of the actual step (shift consistency), and
    fits diameter ~ C * rho^depth over the groups of samples sharing an
    itinerary prefix.  Orbits within BOUNDARY_TOL of a branch boundary are
    redrawn, at most MAX_RESAMPLE_ROUNDS times.  Raises ValueError unless
    ``depth``, ``samples`` >= 1 and ``rng_seed`` >= 0 are integers, then
    ``branch_boundaries``' and the record's errors, Undecided at cross_pr >= 1.
    """
    depth = require_count("depth", depth, 1)
    samples = require_count("samples", samples, 1)
    rng_seed = require_count("rng_seed", rng_seed, 0)
    m = model.m
    boundaries, t0 = branch_boundaries(model, mu)
    K = model.trapping_radius(mu)
    cross = _certified_record(model, mu, K)["cross_pr"]
    if not cross < 1.0:
        raise Undecided(f"cross-form rate {cross:.6g} >= 1: no certified contraction")
    transient = 1
    while 2.0 * np.sqrt(2.0) * K * cross ** transient > 2.0 ** -52:
        transient += 1
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
        X = model.limit_radial(th) + K * rng.uniform(-1, 1, count)
        Y = K / np.sqrt(max(1, model.ydim)) * rng.uniform(-1, 1, (model.ydim, count))
        return model.advance(X, Y, th, mu, transient)[:3]

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

    return ItineraryReport(
        n_symbols=n_sym, depth=depth, samples=samples,
        shift_consistent=shift_consistent,
        max_diameter_by_depth=diam_by_depth,
        contraction_ratio=rho, prefactor=pref,
        expansion_lower_bound=certified_angular_expansion(model), resampled=resampled,
    )


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


@dataclass
class ClassificationRecord:
    """Outcome of the trichotomy for one (model, mu): the attractor label
    plus the supporting condition report and case-specific certificate
    (without sample maxima where its record decides; ``classify_attractor``)."""

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
                "grid_size": len(self.curve.radial_values),
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
    Newton fixed point, a graph-transform curve, or a cone certificate
    decided by its certified record, with samples on 256 angles drawn only
    where the record fails (None maxima otherwise).  The curve is solved
    on 128 to 4,096 trigonometric nodes, its circle map certified
    monotone, and the record keeps it sampled on SPECTRAL_NODES angles;
    its ``residual_sup`` is the invariance residual at the solve's nodes
    (see InvariantCurve).  The orientation follows from m: the curve's
    circle map has the lift's degree.

    Returns one of StablePeriodicOrbit / InvariantTorus / KleinBottle /
    Solenoid, or Indeterminate whenever a hypothesis fails or a condition,
    certificate or solver is ``Undecided`` (never a guess; the reason then
    names the exception class).  An EscapedTube propagates.
    """
    record, = classify_attractors(model, mu)
    if isinstance(record, EscapedTube):
        raise record
    return record


def classify_attractors(model: ValidatedModel, mus) -> list:
    """``classify_attractor`` at every mu of ``mus`` (a scalar or a 1-d
    array), one entry per row: the mu-free case condition runs once and the
    m = 0 fixed points come from one ``find_fixed_points`` call.  A row
    whose orbit escapes holds its EscapedTube, unraised, in place of a
    record, and never stops the others.  A |m| >= 2 row draws trapping
    samples only where its certified record fails.
    """
    rows = np.ravel(mus).tolist()
    try:
        condition = check_case(model)
    except Undecided as exc:
        return [_undecided(mu, None, exc) for mu in rows]
    if not condition.verdict:
        return [ClassificationRecord(AttractorLabel.INDETERMINATE, mu, condition=condition,
                                     reason="case condition violated") for mu in rows]
    if model.m == 0:
        return [_fixed_point_record(mu, condition, fp)
                for mu, fp in zip(rows, find_fixed_points(model, mus))]
    return [_curve_or_cone_record(model, mu, condition) for mu in rows]


def _undecided(mu, condition, exc) -> ClassificationRecord:
    return ClassificationRecord(AttractorLabel.INDETERMINATE, mu, condition=condition,
                                reason=f"{type(exc).__name__}: {exc}")


def _fixed_point_record(mu, condition, fp):
    if isinstance(fp, EscapedTube):
        return fp
    if isinstance(fp, Undecided):
        return _undecided(mu, condition, fp)
    if not fp.stable:
        return ClassificationRecord(AttractorLabel.INDETERMINATE, mu, condition=condition,
                                    fixed_point=fp, reason="fixed point not stable")
    return ClassificationRecord(AttractorLabel.STABLE_PERIODIC_ORBIT, mu,
                                condition=condition, fixed_point=fp)


def _curve_or_cone_record(model: ValidatedModel, mu, condition):
    try:
        if condition.case_tag is CaseTag.TORUS_OR_KLEIN:
            curve = graph_transform_curve(model, mu, SPECTRAL_NODES)
            label = AttractorLabel.INVARIANT_TORUS if model.m == 1 else AttractorLabel.KLEIN_BOTTLE
            return ClassificationRecord(label, mu, condition=condition, curve=curve)
        K = model.trapping_radius(mu)
        record = _certified_record(model, mu, K)
        verdict, interval = _record_checks(record)
        if verdict:     # decided by the record alone: no sample is drawn
            certificate = ConeCertificate(**dict.fromkeys(_SAMPLE_MAXIMA), L_interval=interval,
                                          verdict=True, certified=record)
        else:
            certificate = certify_jacobian_field(_trapping_jacobians(model, mu, 256, K), record)
    except Undecided as exc:
        return _undecided(mu, condition, exc)
    except EscapedTube as exc:
        return exc
    if not certificate.verdict:
        return ClassificationRecord(AttractorLabel.INDETERMINATE, mu, condition=condition,
                                    certificate=certificate, reason="cone conditions violated")
    return ClassificationRecord(AttractorLabel.SOLENOID, mu, condition=condition,
                                certificate=certificate)
