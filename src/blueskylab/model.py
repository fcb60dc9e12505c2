"""Return-map model of a saddle periodic orbit with a homoclinic unstable manifold.

The phase space is a solid-torus cross-section neighborhood of a saddle
periodic orbit whose linearized flow is

    x' = -lam * x,   y' = -beta * y,   z' = gamma * z,   theta' = 1,

with x the leading stable coordinate, y the strong-stable block
(dimension n - 2), z the unstable coordinate and theta the phase angle.
Two cross-sections are used:

    S0: {x = d}  with coordinates (z0, y0, theta0),
    S1: {z = d}  with coordinates (x1, y1, theta1).

``local_map_T0`` is the flow-induced map S0+ -> S1 (closed form of the
linear flow), ``global_map_T1`` is the model family for the return
excursion S1 -> S0, linear in (x, y) with trigonometric-polynomial
angular profiles and a splitting parameter mu:

    z0     = mu * alpha(theta) + x * F_x(theta) + <F_y(theta), y>
    y0_i   = g0_i(theta) + x * F_y_i(theta) + H_y_i(theta) * y_i
    theta0 = m * theta + h(theta) + x * H_x(theta) + <H_y(theta), y>

The composition T = T0 o T1 on S1, written in the rescaled coordinates
X = x / (d^(1-nu) mu^nu), Y = y / mu^nu with nu = lam/gamma > 1, is the
object of study: as mu -> 0+ it converges to

    X -> alpha(theta)^nu,  Y -> 0,
    theta -> omega(mu) + m*theta + h(theta) - (1/gamma) ln alpha(theta),

with omega(mu) = (1/gamma) ln(d/mu).  The integer m (the degree of the
angular component) selects the attractor born when the homoclinic
connection splits.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .fourier import TWO_PI, FourierSeries, lipschitz_grid_extrema

__all__ = [
    "DomainError",
    "EscapedTube",
    "InvalidModel",
    "ModelConfig",
    "NoTrappingRadius",
    "NotInPositiveHalf",
    "RawSectionPoint",
    "Section",
    "TorusPoint",
    "Undecided",
    "ValidatedModel",
    "certified_series_min",
    "global_map_T1",
    "load_config",
    "load_model",
    "local_map_T0",
    "parse_config",
    "require_count",
    "require_mu",
    "return_map",
    "return_map_jacobian",
    "validate_config",
]

CONFIG_KEYS = (
    "m", "gamma", "lambda", "beta", "d", "n",
    "alpha", "h",
    "coupling_fx", "coupling_fy", "coupling_hx", "coupling_hy",
    "g0",
)


class DomainError(Exception):
    """A failure inside the model's domain, as opposed to a usage error."""


class Undecided(DomainError):
    """A certificate or solver could not decide: the outcome is neither
    certified nor refuted, and must be reported as undecided."""


class InvalidModel(DomainError, ValueError):
    """Raised by ``validate_config``; carries every violated rule by name."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid model: " + ", ".join(self.violations))


class NotInPositiveHalf(DomainError, ValueError):
    """A point handed to the local map lies on the wrong side of the stable manifold (z0 <= 0)."""


class EscapedTube(DomainError, RuntimeError):
    """An orbit left the homoclinic tube: the global map produced a z0 that
    is not finite and positive."""


class NoTrappingRadius(Undecided, ValueError):
    """No trapping solid torus can be certified at this mu (mu too large
    for the couplings)."""


class Section(Enum):
    S0 = "S0"
    S1 = "S1"


def require_mu(mu: float) -> float:
    """The input rule for the splitting parameter: 0 < mu < inf (so NaN fails).
    Returns ``mu``; raises ValueError otherwise."""
    if not 0.0 < mu < np.inf:
        raise ValueError(f"mu must be finite and positive, got {mu!r}")
    return mu


def require_count(name: str, value, minimum: int) -> int:
    """The input rule for a count: an integer (``operator.index``, so 10.7
    fails) of at least ``minimum``.  Returns it; raises ValueError otherwise."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count < minimum:
        bound = "non-negative" if minimum == 0 else f"at least {minimum}"
        raise ValueError(f"{name} must be {bound}, got {count}")
    return count


def reduce_angle(theta):
    """Reduce an angle (scalar or array) to [0, 2*pi)."""
    return np.mod(theta, TWO_PI)


def angle_diff(a, b):
    """Signed circle distance a - b, wrapped to (-pi, pi]."""
    d = np.mod(np.asarray(a, dtype=float) - b + np.pi, TWO_PI) - np.pi
    return np.where(d == -np.pi, np.pi, d) if np.ndim(d) else (np.pi if d == -np.pi else float(d))


@dataclass
class TorusPoint:
    """A point (X, Y, theta) of the rescaled solid-torus cross-section.

    ``theta`` is stored reduced mod 2*pi; lift bookkeeping (winding counts)
    is explicit in the operations that need it.
    """

    theta: float
    X: float
    Y: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        self.theta = float(reduce_angle(self.theta))
        self.X = float(self.X)
        self.Y = np.atleast_1d(np.asarray(self.Y, dtype=float))


@dataclass
class RawSectionPoint:
    """A point on one of the unrescaled cross-sections S0 or S1.

    ``coord_a`` is z0 on S0 and x1 on S1; ``coord_b`` is the strong-stable
    vector y in both cases.
    """

    section: Section
    theta: float
    coord_a: float
    coord_b: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        self.section = Section(self.section)
        self.theta = float(self.theta)
        self.coord_a = float(self.coord_a)
        self.coord_b = np.atleast_1d(np.asarray(self.coord_b, dtype=float))


@dataclass
class ModelConfig:
    """All model parameters plus the angular profile series.

    ``coupling_fy``, ``coupling_hy`` and ``g0`` hold one series per
    strong-stable component (n - 2 of them).
    """

    m: float
    gamma: float
    lam: float
    beta: float
    d: float
    n: int
    alpha: FourierSeries
    h: FourierSeries
    coupling_fx: FourierSeries = field(default_factory=FourierSeries.zero)
    coupling_hx: FourierSeries = field(default_factory=FourierSeries.zero)
    coupling_fy: tuple[FourierSeries, ...] = ()
    coupling_hy: tuple[FourierSeries, ...] = ()
    g0: tuple[FourierSeries, ...] = ()

    def __post_init__(self):
        self.coupling_fy = tuple(self.coupling_fy)
        self.coupling_hy = tuple(self.coupling_hy)
        self.g0 = tuple(self.g0)

    def all_series(self) -> list[FourierSeries]:
        """Every angular profile, in the order of the model's series bank."""
        return [self.alpha, self.h, self.coupling_fx, self.coupling_hx,
                *self.coupling_fy, *self.coupling_hy, *self.g0]

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "gamma": self.gamma,
            "lambda": self.lam,
            "beta": self.beta,
            "d": self.d,
            "n": self.n,
            "alpha": self.alpha.to_dict(),
            "h": self.h.to_dict(),
            "coupling_fx": self.coupling_fx.to_dict(),
            "coupling_fy": [s.to_dict() for s in self.coupling_fy],
            "coupling_hx": self.coupling_hx.to_dict(),
            "coupling_hy": [s.to_dict() for s in self.coupling_hy],
            "g0": [s.to_dict() for s in self.g0],
        }


def parse_config(data: dict) -> ModelConfig:
    """Build a ModelConfig from a plain mapping (the config-file schema)."""
    if not isinstance(data, dict):
        raise ValueError("config root must be a mapping")
    missing = [k for k in CONFIG_KEYS if k not in data]
    if missing:
        raise ValueError(f"config is missing keys: {missing}")
    unknown = set(data) - set(CONFIG_KEYS)
    if unknown:
        raise ValueError(f"config has unknown keys: {sorted(unknown)}")

    def series_list(key) -> tuple[FourierSeries, ...]:
        raw = data[key]
        if not isinstance(raw, (list, tuple)):
            raise ValueError(f"{key} must be a list of series (one per y-component)")
        return tuple(FourierSeries.from_dict(item) for item in raw)

    n = data["n"]
    if not float(n).is_integer():
        raise ValueError("n must be an integer")
    cfg = ModelConfig(
        m=float(data["m"]),
        gamma=float(data["gamma"]),
        lam=float(data["lambda"]),
        beta=float(data["beta"]),
        d=float(data["d"]),
        n=int(n),
        alpha=FourierSeries.from_dict(data["alpha"]),
        h=FourierSeries.from_dict(data["h"]),
        coupling_fx=FourierSeries.from_dict(data["coupling_fx"]),
        coupling_hx=FourierSeries.from_dict(data["coupling_hx"]),
        coupling_fy=series_list("coupling_fy"),
        coupling_hy=series_list("coupling_hy"),
        g0=series_list("g0"),
    )
    return cfg


def load_config(path) -> ModelConfig:
    """Read a JSON model-configuration file."""
    with open(Path(path), "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return parse_config(data)


def load_model(path) -> "ValidatedModel":
    return validate_config(load_config(path))


def certified_series_min(series: FourierSeries) -> tuple[float, int, bool]:
    """Certified lower bound for min of a trigonometric polynomial on the circle.

    Evaluates on a uniform grid of 4096 points and subtracts the Lipschitz
    inflation sup|f'| * (half grid spacing); the grid doubles while the
    bound stays inconclusive about the sign.  Returns (lower_bound,
    grid_used, certified) where ``certified`` is False only if the cap of
    2^20 points was reached with the sign still straddling zero.
    """
    grid_min, _, grid, inflation, certified = lipschitz_grid_extrema(
        series.eval, series.deriv_sup_bound(),
        lambda vmin, vmax, inflation: vmin <= 0.0 or vmin - inflation > 0.0)
    return grid_min - inflation, grid, certified


class _SeriesBank:
    """Stacked coefficient matrices for evaluating every model profile
    (and its derivative) in two matrix products per angle batch."""

    def __init__(self, series: list[FourierSeries]):
        rows = list(series) + [s.deriv() for s in series]
        deg = max((s.degree for s in rows), default=0)
        self.n_rows = len(rows)
        self.n_base = len(series)
        self.cos_mat = np.zeros((self.n_rows, deg + 1))
        self.sin_mat = np.zeros((self.n_rows, deg))
        for i, s in enumerate(rows):
            self.cos_mat[i, 0] = s.constant_term
            self.cos_mat[i, 1 : 1 + len(s.cosine_coeffs)] = s.cosine_coeffs
            self.sin_mat[i, : len(s.sine_coeffs)] = s.sine_coeffs
        self.k_cos = np.arange(deg + 1, dtype=float)
        self.k_sin = np.arange(1, deg + 1, dtype=float)

    def eval(self, theta, derivatives: bool = False) -> np.ndarray:
        """Values of the profiles at ``theta``, shape (n_base,) + theta.shape;
        with ``derivatives`` all rows, shape (n_rows,) + theta.shape."""
        theta = np.asarray(theta, dtype=float)
        rows = self.n_rows if derivatives else self.n_base
        # np.dot on flattened angles: the product tensordot makes, without
        # its per-call overhead (most of a single-point evaluation)
        cb = np.cos(np.multiply.outer(self.k_cos, theta)).reshape(len(self.k_cos), theta.size)
        sb = np.sin(np.multiply.outer(self.k_sin, theta)).reshape(len(self.k_sin), theta.size)
        vals = np.dot(self.cos_mat[:rows], cb) + np.dot(self.sin_mat[:rows], sb)
        return vals.reshape((rows,) + theta.shape)


class ValidatedModel:
    """A ModelConfig whose invariants have been checked, plus cached
    evaluation machinery.  Immutable after construction but for the memo
    of mu-free certified results; every map evaluation is side-effect free.
    """

    def __init__(self, cfg: ModelConfig, alpha_min: float):
        self.cfg = cfg
        self.m = int(cfg.m)
        self.gamma = cfg.gamma
        self.lam = cfg.lam
        self.beta = cfg.beta
        self.d = cfg.d
        self.n = cfg.n
        self.ydim = cfg.n - 2
        self.nu = cfg.lam / cfg.gamma
        self.beta_over_gamma = cfg.beta / cfg.gamma
        self.alpha_min = alpha_min          # certified positive lower bound
        self.alpha_sup = cfg.alpha.sup_bound()
        self._memo: dict = {}

        k = self.ydim
        self._bank = _SeriesBank(cfg.all_series())
        self._iA, self._iH, self._iFX, self._iHX = 0, 1, 2, 3
        self._sFY = slice(4, 4 + k)
        self._sHY = slice(4 + k, 4 + 2 * k)
        self._sG0 = slice(4 + 2 * k, 4 + 3 * k)
        self._doff = 4 + 3 * k

    def memoized(self, key, compute):
        """``compute()``, evaluated once per model and ``key`` (for the mu-free
        certified quantities).  Store plain results, never an exception: its
        traceback would keep the frames that raised it alive."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    # -- derived multipliers of the saddle orbit ---------------------------

    @property
    def rho1(self) -> float:
        """Leading stable multiplier exp(-2*pi*lam) of the saddle orbit."""
        return float(np.exp(-TWO_PI * self.lam))

    @property
    def rho_n(self) -> float:
        """Unstable multiplier exp(2*pi*gamma) of the saddle orbit."""
        return float(np.exp(TWO_PI * self.gamma))

    # -- raw cross-section maps --------------------------------------------

    def t0_raw(self, z0, y0, theta0):
        """Local map S0+ -> S1 of the linear flow (vectorized, assumes z0 > 0).

        Returns (x1, y1, theta1_lift, flight_time) with
        flight_time = (1/gamma) ln(d/z0) and y contracted by z0^(beta/gamma).
        """
        z0 = np.asarray(z0, dtype=float)
        flight = (np.log(self.d) - np.log(z0)) / self.gamma
        x1 = self.d ** (1.0 - self.nu) * z0 ** self.nu
        y1 = z0 ** self.beta_over_gamma * np.asarray(y0, dtype=float)
        theta1 = np.asarray(theta0, dtype=float) + flight
        return x1, y1, theta1, flight

    def t1_raw(self, x1, y1, theta1, mu):
        """Global map S1 -> S0 (vectorized).

        ``y1`` carries the strong-stable components on a leading axis of
        length n - 2.  Returns (z0, y0, theta0); theta0 is the lift
        m*theta1 + ..., not reduced.
        """
        x1 = np.asarray(x1, dtype=float)
        y1 = np.asarray(y1, dtype=float)
        theta1 = np.asarray(theta1, dtype=float)
        return self._t1(self._bank.eval(theta1), x1, y1, theta1, mu)

    def _t1(self, vals, x1, y1, theta1, mu):
        """The global map on the series-bank values ``vals`` at ``theta1``."""
        fy, hy = vals[self._sFY], vals[self._sHY]
        z0 = mu * vals[self._iA] + x1 * vals[self._iFX] + np.sum(fy * y1, axis=0)
        y0 = vals[self._sG0] + x1 * fy + hy * y1
        theta0 = self.m * theta1 + vals[self._iH] + x1 * vals[self._iHX] \
            + np.sum(hy * y1, axis=0)
        return z0, y0, theta0

    # -- rescaled return map -------------------------------------------------

    def rescaled_step(self, X, Y, theta, mu, with_jacobian: bool = False):
        """One application of the rescaled return map T = T0 o T1.

        Parameters
        ----------
        X, theta : scalars or arrays of a common shape S.
        Y : array of shape (n-2,) + S (leading component axis).
        mu : positive splitting parameter.
        with_jacobian : also return the derivative in (X, Y, theta), an
            array of shape S + (n, n) with variable order (X, Y..., theta);
            the theta derivative is taken on the lift.

        Returns
        -------
        (Xb, Yb, theta_lift, flight[, jac]) where ``theta_lift`` is the
        unreduced angular image m*theta + ... + (1/gamma) ln(d/z0); the
        input ``theta`` is used as a real number, so the lift is smooth
        in all arguments.

        Raises
        ------
        EscapedTube if any intermediate z0 is not finite and positive, or
        any image Xb, Yb is not finite.
        """
        require_mu(mu)
        X = np.asarray(X, dtype=float)
        theta = np.asarray(theta, dtype=float)
        Y = np.asarray(Y, dtype=float)
        k = self.ydim
        if Y.shape[:1] != (k,):
            if k == 0 and Y.size == 0:
                Y = Y.reshape((0,) + theta.shape)
            else:
                raise ValueError(f"Y must have leading axis of length {k}")

        gamma, nu, bg, d, m = self.gamma, self.nu, self.beta_over_gamma, self.d, self.m
        mu_nu = mu ** nu
        c_x = d ** (1.0 - nu) * mu_nu

        vals = self._bank.eval(theta, derivatives=with_jacobian)
        x = c_x * X
        z0, y0, th0 = self._t1(vals, x, mu_nu * Y, theta, mu)
        if not np.all((z0 > 0.0) & (z0 < np.inf)):
            raise EscapedTube(f"z0 not finite and positive under the global map at mu={mu!r}")

        # an orbit that overflows here has left the tube: flag it on this step
        with np.errstate(over="ignore", invalid="ignore"):
            u = z0 / mu
            Xb = u ** nu
            c_y = mu ** (bg - nu)
            u_bg = u ** bg
            Yb = c_y * u_bg * y0
        if not (np.isfinite(Xb).all() and np.isfinite(Yb).all()):
            raise EscapedTube(f"image not finite under the local map at mu={mu!r}")
        flight = (np.log(d) - np.log(z0)) / gamma
        theta_lift = th0 + flight

        if not with_jacobian:
            return Xb, Yb, theta_lift, flight

        a, fx, hx = vals[self._iA], vals[self._iFX], vals[self._iHX]
        fy, hy = vals[self._sFY], vals[self._sHY]
        do = self._doff
        a1, hv1 = vals[do + self._iA], vals[do + self._iH]
        fx1, hx1 = vals[do + self._iFX], vals[do + self._iHX]
        fy1 = vals[do + self._sFY.start : do + self._sFY.stop]
        hy1 = vals[do + self._sHY.start : do + self._sHY.stop]
        g01 = vals[do + self._sG0.start : do + self._sG0.stop]
        # first-stage partials (z0, y0, theta0) w.r.t. (X, Y, theta)
        dz0_dX = c_x * fx
        dz0_dY = mu_nu * fy
        dz0_dth = mu * a1 + x * fx1 + mu_nu * np.sum(fy1 * Y, axis=0)
        dy0_dX = c_x * fy
        dy0_dYdiag = mu_nu * hy
        dy0_dth = g01 + x * fy1 + mu_nu * hy1 * Y
        dth0_dX = c_x * hx
        dth0_dY = mu_nu * hy
        dth0_dth = m + hv1 + x * hx1 + mu_nu * np.sum(hy1 * Y, axis=0)

        # chain through the local map and the rescaling
        w = nu * u ** (nu - 1.0) / mu                 # dXb/dz0
        v = c_y * bg * u ** (bg - 1.0) / mu           # dYb_i/dz0 factor on y0_i
        q = c_y * u_bg
        inv_gz = 1.0 / (gamma * z0)

        shape = np.broadcast_shapes(X.shape, theta.shape, Y.shape[1:])
        nn = self.n
        jac = np.zeros(shape + (nn, nn))
        jac[..., 0, 0] = w * dz0_dX
        jac[..., 0, nn - 1] = w * dz0_dth
        jac[..., nn - 1, 0] = dth0_dX - dz0_dX * inv_gz
        jac[..., nn - 1, nn - 1] = dth0_dth - dz0_dth * inv_gz
        if k:
            jac[..., 0, 1 : 1 + k] = np.moveaxis(w * dz0_dY, 0, -1)
            jac[..., nn - 1, 1 : 1 + k] = np.moveaxis(dth0_dY - dz0_dY * inv_gz, 0, -1)
            jac[..., 1 : 1 + k, 0] = np.moveaxis(v * y0 * dz0_dX + q * dy0_dX, 0, -1)
            jac[..., 1 : 1 + k, nn - 1] = np.moveaxis(v * y0 * dz0_dth + q * dy0_dth, 0, -1)
            yy = np.einsum("i...,j...->...ij", v * y0, dz0_dY)
            idx = np.arange(k)
            yy[..., idx, idx] += np.moveaxis(q * dy0_dYdiag, 0, -1)
            jac[..., 1 : 1 + k, 1 : 1 + k] = yy
        return Xb, Yb, theta_lift, flight, jac

    def advance(self, X, Y, theta, mu, steps: int):
        """``steps`` (>= 0) applications of ``rescaled_step``, reducing the angle
        to [0, 2*pi) after each.  Returns (X, Y, theta, flight): the image and
        the flight time summed over the steps, per point."""
        flight = 0.0
        for _ in range(require_count("steps", steps, 0)):
            X, Y, lift, step_flight = self.rescaled_step(X, Y, theta, mu)
            theta = reduce_angle(lift)
            flight = flight + step_flight
        return X, Y, theta, flight

    # -- limit objects -------------------------------------------------------

    def omega(self, mu: float) -> float:
        """Angular drift (1/gamma) ln(d/mu) of the return map."""
        return float((np.log(self.d) - np.log(mu)) / self.gamma)

    def limit_radial(self, theta):
        """The mu -> 0 radial limit X = alpha(theta)^nu of the attractor."""
        return self.cfg.alpha.eval(theta) ** self.nu

    def seed_point(self, theta: float = 0.0) -> TorusPoint:
        """A point on the limit curve, a convenient orbit seed."""
        return TorusPoint(theta=theta, X=float(self.limit_radial(theta)),
                          Y=np.zeros(self.ydim))

    # -- trapping region -------------------------------------------------------

    def coupling_sup_bounds(self) -> dict:
        """Sup bounds of every coupling profile and its derivative (shared; do not mutate)."""
        cfg = self.cfg
        return self.memoized("coupling_sup_bounds", lambda: {
            "fx": cfg.coupling_fx.sup_bound(),
            "hx": cfg.coupling_hx.sup_bound(),
            "fy": np.array([s.sup_bound() for s in cfg.coupling_fy]),
            "hy": np.array([s.sup_bound() for s in cfg.coupling_hy]),
            "g0": np.array([s.sup_bound() for s in cfg.g0]),
            "fx1": cfg.coupling_fx.deriv_sup_bound(),
            "hx1": cfg.coupling_hx.deriv_sup_bound(),
            "fy1": np.array([s.deriv_sup_bound() for s in cfg.coupling_fy]),
            "hy1": np.array([s.deriv_sup_bound() for s in cfg.coupling_hy]),
            "g01": np.array([s.deriv_sup_bound() for s in cfg.g0]),
        })

    def _excursion_bounds(self, mu: float, K: float) -> tuple:
        """(x_abs, c_max, delta, u_lo, u_hi, y0_max), bounds over the torus of
        radius K: |X| <= x_abs, the coupling part of z0 / mu^nu <= c_max,
        u_lo <= u = z0 / mu <= u_hi with |u - alpha| <= delta, and
        |y0_i| <= y0_max[i].  Raises NoTrappingRadius when u_lo <= 0."""
        nu, d = self.nu, self.d
        sup = self.coupling_sup_bounds()
        d_pow = d ** (1.0 - nu)
        fy_norm = float(np.sqrt(np.sum(sup["fy"] ** 2))) if self.ydim else 0.0
        x_abs = self.alpha_sup ** nu + K
        c_max = d_pow * sup["fx"] * x_abs + fy_norm * K
        delta = mu ** (nu - 1.0) * c_max
        u_lo = self.alpha_min - delta
        if u_lo <= 0.0:
            raise NoTrappingRadius(f"no trapping radius certified at mu={mu!r}")
        y0_max = sup["g0"] + mu ** nu * (d_pow * sup["fy"] * x_abs + sup["hy"] * K)
        return x_abs, c_max, delta, u_lo, self.alpha_sup + delta, y0_max

    def trapping_radius(self, mu: float) -> float:
        """Radius K of a solid torus {|X - alpha(theta)^nu| < K, |Y| < K}
        mapped strictly into itself.

        K is the oscillation of alpha^nu plus a worst-case bound, derived
        from the coupling amplitudes, on how far images deviate from the
        limit curve.  Raises NoTrappingRadius if no radius can be certified
        at this mu (mu too large for the given couplings).
        """
        require_mu(mu)
        nu, bg = self.nu, self.beta_over_gamma
        a_hi = self.alpha_sup
        osc = a_hi ** nu - self.alpha_min ** nu
        floor = 1e-3 * (1.0 + a_hi ** nu)

        K = osc + floor
        for _ in range(8):
            _, _, delta, _, u_hi, y0_max = self._excursion_bounds(mu, K)
            x_dev = nu * u_hi ** (nu - 1.0) * delta
            y_bound = mu ** (bg - nu) * u_hi ** bg * float(np.sqrt(np.sum(y0_max ** 2)))
            if osc + x_dev < K and y_bound < K:
                return float(K)
            K = max(osc + 2.0 * x_dev + floor, 2.0 * y_bound, K)
        raise NoTrappingRadius(f"no trapping radius certified at mu={mu!r}")

    def trapping_samples(self, mu: float, n_theta: int = 128):
        """Grid over the trapping solid torus: the core plus the face centres.

        Returns (theta, X, Y, K) with K = ``trapping_radius(mu)``, theta
        shape (M,), X shape (M,), Y shape (n-2, M), M = n_theta * (2(n-1)
        + 1): at each of the ``n_theta`` (>= 1) grid angles the core point
        and the points at -K and +K along each of the n-1 radial axes, all
        in the closed torus {|X - alpha^nu| <= K, |Y| <= K}.
        """
        require_count("n_theta", n_theta, 1)
        K = self.trapping_radius(mu)
        theta = np.arange(n_theta) * (TWO_PI / n_theta)
        r = self.n - 1
        offsets = np.hstack((np.zeros((r, 1)), -K * np.eye(r), K * np.eye(r)))
        n_off = offsets.shape[1]
        th = np.repeat(theta, n_off)
        X = np.repeat(self.limit_radial(theta), n_off) + np.tile(offsets[0], n_theta)
        Y = np.tile(offsets[1:], n_theta)
        return th, X, Y, K

    def check_trapping(self, mu: float) -> bool:
        """Test that the image of every ``trapping_samples`` point (core and
        face centres, 128 angles) lies strictly inside the trapping torus."""
        th, X, Y, K = self.trapping_samples(mu)
        Xb, Yb, th_lift, _ = self.rescaled_step(X, Y, th, mu)
        dev = np.abs(Xb - self.limit_radial(reduce_angle(th_lift)))
        y_norm = np.sqrt(np.sum(Yb ** 2, axis=0)) if self.ydim else np.zeros_like(Xb)
        return bool(np.all(dev < K) and np.all(y_norm < K))


def validate_config(cfg: ModelConfig) -> ValidatedModel:
    """Check every model-family rule; raise InvalidModel naming all violations.

    Rules: every scalar and series coefficient finite; nu = lam/gamma > 1;
    beta > lam (strong-stable block dominated); alpha strictly positive on
    the circle (simultaneous splitting, checked only on finite input); m an
    integer; and the dimension constraint on m (n = 2 forces m = 1, n = 3
    allows |m| <= 1, n >= 4 allows any integer).
    """
    violations: list[str] = []
    numbers = [cfg.m, cfg.gamma, cfg.lam, cfg.beta, cfg.d, cfg.n]
    for s in cfg.all_series():
        numbers += [s.constant_term, *s.cosine_coeffs, *s.sine_coeffs]
    finite = bool(np.all(np.isfinite(numbers)))
    if not finite:
        violations.append("NonFinite")
    if not float(cfg.n).is_integer() or cfg.n < 2:
        violations.append("NTooSmall")
    if cfg.gamma <= 0.0:
        violations.append("GammaNotPositive")
    if cfg.d <= 0.0:
        violations.append("DNotPositive")
    if cfg.gamma > 0.0 and cfg.lam <= cfg.gamma:
        violations.append("NuNotGreaterThanOne")
    if cfg.beta <= cfg.lam:
        violations.append("BetaNotGreaterThanLambda")

    m_is_int = float(cfg.m).is_integer()
    if not m_is_int:
        violations.append("HalfIntegerM")

    if m_is_int and float(cfg.n).is_integer() and cfg.n >= 2:
        m = int(cfg.m)
        if cfg.n == 2 and m != 1:
            violations.append("DimensionForbidsM")
        elif cfg.n == 3 and abs(m) > 1:
            violations.append("DimensionForbidsM")

    ydim = int(cfg.n) - 2 if float(cfg.n).is_integer() else None
    if ydim is not None and ydim >= 0:
        for name, seq in (("coupling_fy", cfg.coupling_fy),
                          ("coupling_hy", cfg.coupling_hy),
                          ("g0", cfg.g0)):
            if len(seq) != ydim:
                violations.append("YProfileLengthMismatch")
                break

    if finite:
        alpha_min, _, certified = certified_series_min(cfg.alpha)
        if alpha_min <= 0.0 or not certified:
            violations.append("AlphaNotPositive")

    if violations:
        raise InvalidModel(violations)
    return ValidatedModel(cfg, alpha_min=alpha_min)


# -- operation-style wrappers ---------------------------------------------


def local_map_T0(p: RawSectionPoint, model: ValidatedModel) -> tuple[RawSectionPoint, float]:
    """Flow-induced map S0+ -> S1; returns the image point and the flight time.

    Closed form of the linear flow: x1 = d^(1-nu) z0^nu, y1 = z0^(beta/gamma) y0,
    theta1 = theta0 + (1/gamma) ln(d/z0).  The image angle is reduced mod 2*pi.
    """
    if p.section is not Section.S0:
        raise ValueError("local map expects a point on S0")
    if p.coord_a <= 0.0:
        raise NotInPositiveHalf(f"z0 = {p.coord_a!r} is not in S0+ (escapes toward S0-)")
    x1, y1, theta1, flight = model.t0_raw(p.coord_a, p.coord_b, p.theta)
    out = RawSectionPoint(Section.S1, float(reduce_angle(theta1)), float(x1), y1)
    return out, float(flight)


def global_map_T1(p: RawSectionPoint, mu: float, model: ValidatedModel) -> RawSectionPoint:
    """Model family for the return excursion S1 -> S0 (total on its domain).

    At x = 0, y = 0, mu = 0 the output z0 is exactly zero: the whole
    unstable manifold is homoclinic at the bifurcation moment.
    """
    if p.section is not Section.S1:
        raise ValueError("global map expects a point on S1")
    z0, y0, theta0 = model.t1_raw(p.coord_a, p.coord_b, p.theta, mu)
    return RawSectionPoint(Section.S0, float(reduce_angle(theta0)), float(z0), y0)


def return_map(p: TorusPoint, mu: float, model: ValidatedModel) -> tuple[TorusPoint, int, float]:
    """Rescaled return map on the solid torus.

    Returns (image point, winding, flight_time) where ``winding`` is the
    number of whole turns by which the angular lift exceeds the reduced
    image angle.
    """
    Xb, Yb, lift, flight = model.rescaled_step(p.X, p.Y, p.theta, mu)
    theta_mod = float(reduce_angle(lift))
    winding = int(np.floor(float(lift) / TWO_PI))
    return TorusPoint(theta_mod, float(Xb), Yb), winding, float(flight)


def return_map_jacobian(p: TorusPoint, mu: float, model: ValidatedModel) -> np.ndarray:
    """Analytic derivative of the rescaled return map in (X, Y, theta).

    The angular derivative is computed on the lift.  Shape (n, n) with
    variable order (X, Y..., theta).
    """
    *_, jac = model.rescaled_step(p.X, p.Y, p.theta, mu, with_jacobian=True)
    return jac
