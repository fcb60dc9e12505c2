"""Return-map model of a saddle periodic orbit with a homoclinic unstable manifold.

The phase space is a solid-torus cross-section neighborhood of a saddle
periodic orbit whose linearized flow is

    x' = -lam * x,   y' = -beta * y,   z' = gamma * z,   theta' = 1,

with x the leading stable coordinate, y the strong-stable block
(dimension n - 2), z the unstable coordinate and theta the phase angle.
Two cross-sections are used:

    S0: {x = d}  with coordinates (z0, y0, theta0),
    S1: {z = d}  with coordinates (x1, y1, theta1).

``ValidatedModel.t0_raw`` is the flow-induced map S0+ -> S1 (closed form
of the linear flow), ``ValidatedModel.t1_raw`` is the model family for the
return excursion S1 -> S0, linear in (x, y) with trigonometric-polynomial
angular profiles and a splitting parameter mu:

    z0     = mu * alpha(theta) + x * F_x(theta) + <F_y(theta), y>
    y0_i   = g0_i(theta) + x * F_y_i(theta) + H_y_i(theta) * y_i
    theta0 = m * theta + h(theta) + x * H_x(theta) + <H_y(theta), y>

The composition T = T0 o T1 on S1 (``ValidatedModel.rescaled_step``, with
its analytic Jacobian), written in the rescaled coordinates
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
from numbers import Real
from pathlib import Path

import numpy as np

from .fourier import TWO_PI, FourierSeries, SeriesBank, lipschitz_grid_extrema

__all__ = [
    "DomainError",
    "EscapedTube",
    "InvalidModel",
    "ModelConfig",
    "NoTrappingRadius",
    "TorusPoint",
    "Undecided",
    "ValidatedModel",
    "load_config",
    "load_model",
    "parse_config",
    "require_count",
    "require_mu",
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


class EscapedTube(DomainError, RuntimeError):
    """An orbit left the homoclinic tube, by the escape rule stated in
    ``ValidatedModel._step``."""


class NoTrappingRadius(Undecided, ValueError):
    """No trapping solid torus can be certified at this mu (mu too large
    for the couplings)."""


def require_mu(mu):
    """The input rule for the splitting parameter: 0 < mu < inf (so NaN
    fails), for a scalar or for every element of an array.  Returns ``mu``
    (an array as a float array); raises ValueError otherwise."""
    if np.ndim(mu) == 0:
        if not 0.0 < mu < np.inf:
            raise ValueError(f"mu must be finite and positive, got {mu!r}")
        return mu
    values = np.asarray(mu, dtype=float)
    if not np.all((values > 0.0) & (values < np.inf)):
        raise ValueError(f"mu must be finite and positive, got {mu!r}")
    return values


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

    def number(key) -> float:
        if not isinstance(data[key], Real):
            raise ValueError(f"{key} must be a number, got {type(data[key]).__name__}")
        return float(data[key])

    def series(key, raw) -> FourierSeries:
        try:
            return FourierSeries.from_dict(raw)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None

    def series_list(key) -> tuple[FourierSeries, ...]:
        raw = data[key]
        if not isinstance(raw, (list, tuple)):
            raise ValueError(f"{key} must be a list of series (one per y-component)")
        return tuple(series(f"{key}.{i}", item) for i, item in enumerate(raw))

    n = number("n")
    if not n.is_integer():
        raise ValueError("n must be an integer")
    return ModelConfig(
        m=number("m"), gamma=number("gamma"), lam=number("lambda"), beta=number("beta"),
        d=number("d"), n=int(n),
        alpha=series("alpha", data["alpha"]),
        h=series("h", data["h"]),
        coupling_fx=series("coupling_fx", data["coupling_fx"]),
        coupling_hx=series("coupling_hx", data["coupling_hx"]),
        coupling_fy=series_list("coupling_fy"),
        coupling_hy=series_list("coupling_hy"),
        g0=series_list("g0"),
    )


def load_config(path) -> ModelConfig:
    """Read a JSON model-configuration file."""
    with open(Path(path), "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return parse_config(data)


def load_model(path) -> "ValidatedModel":
    return validate_config(load_config(path))


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
        self.sup_bounds = self._profile_bounds(FourierSeries.sup_bound)
        self.deriv_sup_bounds = self._profile_bounds(FourierSeries.deriv_sup_bound)
        self.alpha_sup = self.sup_bounds[0]
        self._memo: dict = {}
        self._bank = SeriesBank(cfg.all_series())

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

    def _profiles(self, rows):
        """(alpha, h, F_x, H_x, F_y, H_y, g0) from series-bank rows in
        ``ModelConfig.all_series`` order, F_y, H_y and g0 with a leading
        axis of length n - 2; rows past the last g0 are ignored."""
        k = self.ydim
        return (*rows[:4], rows[4 : 4 + k], rows[4 + k : 4 + 2 * k], rows[4 + 2 * k : 4 + 3 * k])

    def _profile_bounds(self, bound):
        """The coefficient-sum ``bound`` (``FourierSeries.sup_bound`` or
        ``deriv_sup_bound``) of every series, split by ``_profiles``: four
        floats, then (n - 2,) arrays for F_y, H_y and g0."""
        values = self._profiles([bound(s) for s in self.cfg.all_series()])
        return (*values[:4], *map(np.array, values[4:]))

    def _t1(self, vals, x1, y1, theta1, mu):
        """The global map on the series-bank values ``vals`` at ``theta1``."""
        a, h, fx, hx, fy, hy, g0 = self._profiles(vals)
        z0 = mu * a + x1 * fx + np.sum(fy * y1, axis=0)
        y0 = g0 + x1 * fy + hy * y1
        theta0 = self.m * theta1 + h + x1 * hx + np.sum(hy * y1, axis=0)
        return z0, y0, theta0

    # -- rescaled return map -------------------------------------------------

    def rescaled_step(self, X, Y, theta, mu, with_jacobian: bool = False):
        """One application of the rescaled return map T = T0 o T1.

        Parameters
        ----------
        X, theta : scalars or arrays of a common shape S.
        Y : array of shape (n-2,) + S (leading component axis).
        mu : positive splitting parameter, a scalar or an array whose shape
            broadcasts to S (one mu per point).
        with_jacobian : also return the derivative in (X, Y, theta), an
            array of shape S + (n, n) with variable order (X, Y..., theta);
            the theta derivative is taken on the lift.  It is a view onto
            a component-major (n, n) + S block, one contiguous row per
            entry (``np.moveaxis(jac, (-2, -1), (0, 1))`` gives it back
            without a copy); a caller that needs a contiguous S + (n, n)
            array must copy it.

        Returns
        -------
        (Xb, Yb, theta_lift, flight[, jac]) where ``theta_lift`` is the
        unreduced angular image m*theta + ... + (1/gamma) ln(d/z0); the
        input ``theta`` is used as a real number, so the lift is smooth
        in all arguments.

        Raises
        ------
        EscapedTube if any point escaped (the rule in ``_step``);
        ValueError for a state that breaks ``_require_state``, which runs
        once per call, before ``_step``.
        """
        out, escaped = self._step(X, Y, theta, self._require_state(X, Y, theta, mu),
                                  with_jacobian)
        if escaped.any():
            raise EscapedTube(f"orbit left the homoclinic tube at mu={mu!r}: z0 not finite "
                              f"and positive, or image or Jacobian not finite")
        return out

    def _require_state(self, X, Y, theta, mu):
        """``require_mu``, a ``Y`` axis n - 2 long (empty at n = 2) and a mu
        that broadcasts to the state's shape S, checked once per call of
        ``rescaled_step`` and ``advance``.  Returns ``require_mu(mu)``."""
        mu = require_mu(mu)
        if np.shape(Y)[:1] != (self.ydim,):
            raise ValueError(f"Y must have leading axis of length {self.ydim}")
        if np.ndim(mu):
            shape = np.broadcast_shapes(np.shape(X), np.shape(theta), np.shape(Y)[1:])
            if np.broadcast_shapes(mu.shape, shape) != shape:
                raise ValueError(f"mu of shape {mu.shape} does not broadcast to the "
                                 f"state's shape {shape}")
        return mu

    def _step(self, X, Y, theta, mu, with_jacobian=False):
        """``rescaled_step`` with escapes reported per point instead of
        raised: returns (the tuple ``rescaled_step`` returns, escaped), with
        ``escaped`` a boolean array of shape S and every output NaN at the
        escaped points.  The escape rule, stated here only: a point escaped
        (its orbit left the homoclinic tube) when its z0 is not finite and
        positive, or its Xb or any component of its Yb is not finite, or,
        with ``with_jacobian``, any entry of its Jacobian is not finite.
        Escaped points raise no floating-point warning.  The state is not
        checked here: callers check it with ``_require_state`` first, or
        pass arrays of the shapes that ``_step`` returned for such a state."""
        X = np.asarray(X, dtype=float)
        theta = np.asarray(theta, dtype=float)
        Y = np.asarray(Y, dtype=float)
        k = self.ydim
        gamma, nu, bg, d, m = self.gamma, self.nu, self.beta_over_gamma, self.d, self.m
        # escaped points compute whatever IEEE arithmetic gives; the mask NaNs them
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            vals = self._bank.eval(theta, derivatives=with_jacobian)
            mu_nu = mu ** nu
            c_x = d ** (1.0 - nu) * mu_nu
            x = c_x * X
            z0, y0, th0 = self._t1(vals, x, mu_nu * Y, theta, mu)
            u = z0 / mu
            Xb = u ** nu
            c_y = mu ** (bg - nu)
            q = c_y * u ** bg
            Yb = q * y0
            kept = (z0 > 0.0) & (z0 < np.inf) & np.isfinite(Xb) & np.all(np.isfinite(Yb), axis=0)
            flight = (np.log(d) - np.log(z0)) / gamma
            out = (Xb, Yb, th0 + flight, flight)
            if with_jacobian:
                _, _, fx, hx, fy, hy, _ = self._profiles(vals)
                a1, hv1, fx1, hx1, fy1, hy1, g01 = self._profiles(vals[self._bank.n_base :])
                # first-stage partials (z0, y0, theta0) w.r.t. (X, Y, theta)
                dz0_dX = c_x * fx
                dz0_dY = mu_nu * fy
                dz0_dth = mu * a1 + x * fx1 + mu_nu * np.sum(fy1 * Y, axis=0)
                dy0_dX = c_x * fy
                dy0_dth = g01 + x * fy1 + mu_nu * hy1 * Y
                dth0_dX = c_x * hx
                dth0_dY = mu_nu * hy                  # also dy0_i/dY_i
                dth0_dth = m + hv1 + x * hx1 + mu_nu * np.sum(hy1 * Y, axis=0)

                # chain through the local map and the rescaling
                w = nu * u ** (nu - 1.0) / mu                 # dXb/dz0
                vy0 = c_y * bg * u ** (bg - 1.0) / mu * y0    # dYb/dz0
                inv_gz = 1.0 / (gamma * z0)

                # component-major: each partial derivative is one contiguous row of shape S
                nn = self.n
                jac = np.empty((nn, nn) + kept.shape)
                jac[0, 0] = w * dz0_dX
                jac[0, nn - 1] = w * dz0_dth
                jac[nn - 1, 0] = dth0_dX - dz0_dX * inv_gz
                jac[nn - 1, nn - 1] = dth0_dth - dz0_dth * inv_gz
                jac[0, 1 : 1 + k] = w * dz0_dY
                jac[nn - 1, 1 : 1 + k] = dth0_dY - dz0_dY * inv_gz
                jac[1 : 1 + k, 0] = vy0 * dz0_dX + q * dy0_dX
                jac[1 : 1 + k, nn - 1] = vy0 * dz0_dth + q * dy0_dth
                np.multiply(vy0[:, None], dz0_dY[None], out=jac[1 : 1 + k, 1 : 1 + k])
                idx = np.arange(1, 1 + k)
                jac[idx, idx] += q * dth0_dY
                kept &= np.all(np.isfinite(jac), axis=(0, 1))
        escaped = ~kept
        if escaped.any():
            out = tuple(np.where(escaped, np.nan, o) for o in out)
            if with_jacobian:
                jac[:, :, escaped] = np.nan
        if with_jacobian:
            out += (np.moveaxis(jac, (0, 1), (-2, -1)),)
        return out, escaped

    def advance(self, X, Y, theta, mu, steps: int):
        """``steps`` (>= 0) applications of the rescaled map, reducing the
        angle to [0, 2*pi) after each.  Returns (X, Y, theta, flight): the
        image and the flight time summed over the steps, per point.  A point
        that escapes (the rule in ``_step``) is NaN from that step on, its
        flight included, and the other points go on; ``mu`` may be an
        array, one value per point.  The state is checked once per call
        (``_require_state``), ``steps = 0`` included."""
        steps = require_count("steps", steps, 0)
        mu = self._require_state(X, Y, theta, mu)
        flight = 0.0
        for _ in range(steps):
            (X, Y, lift, step_flight), _ = self._step(X, Y, theta, mu)
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

    def limit_points(self, theta):
        """The limit-curve points (X, Y, theta) = (alpha(theta)^nu, 0, theta)
        at the angles ``theta`` (any shape S; Y of shape (n-2,) + S), the
        start of every regime's orbits."""
        theta = np.asarray(theta, dtype=float)
        return self.limit_radial(theta), np.zeros((self.ydim,) + theta.shape), theta

    # -- trapping region -------------------------------------------------------

    def _excursion_bounds(self, mu: float, K: float) -> tuple:
        """(x_abs, c_max, delta, u_lo, u_hi, y0_max), bounds over the torus of
        radius K: |X| <= x_abs, the coupling part of z0 / mu^nu <= c_max,
        u_lo <= u = z0 / mu <= u_hi with |u - alpha| <= delta, and
        |y0_i| <= y0_max[i].  Raises NoTrappingRadius when u_lo <= 0."""
        nu, d = self.nu, self.d
        a_hi, _, fx, _, fy, hy, g0 = self.sup_bounds
        d_pow = d ** (1.0 - nu)
        fy_norm = float(np.sqrt(np.sum(fy ** 2)))
        x_abs = a_hi ** nu + K
        c_max = d_pow * fx * x_abs + fy_norm * K
        delta = mu ** (nu - 1.0) * c_max
        u_lo = self.alpha_min - delta
        if u_lo <= 0.0:
            raise NoTrappingRadius(f"no trapping radius certified at mu={mu!r}")
        y0_max = g0 + mu ** nu * (d_pow * fy * x_abs + hy * K)
        return x_abs, c_max, delta, u_lo, a_hi + delta, y0_max

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

    def trapping_samples(self, theta, K: float):
        """Samples of the trapping solid torus of radius ``K`` (the caller's
        ``trapping_radius(mu)``) over the angles ``theta``: the core plus
        the face centres.

        Returns (theta, X, Y) with theta shape (M,), X shape (M,), Y shape
        (n-2, M), M = len(theta) * (2(n-1) + 1): at each angle of the 1-d
        array ``theta`` the core point and the points at -K and +K along
        each of the n-1 radial axes, all in the closed torus
        {|X - alpha^nu| <= K, |Y| <= K}.  Callers pass one block of
        ``fourier.uniform_grid`` at a time, with K computed once for all
        the blocks.
        """
        theta = np.asarray(theta, dtype=float)
        r = self.n - 1
        offsets = np.hstack((np.zeros((r, 1)), -K * np.eye(r), K * np.eye(r)))
        n_off = offsets.shape[1]
        th = np.repeat(theta, n_off)
        X = np.repeat(self.limit_radial(theta), n_off) + np.tile(offsets[0], theta.size)
        Y = np.tile(offsets[1:], theta.size)
        return th, X, Y


def validate_config(cfg: ModelConfig) -> ValidatedModel:
    """Check every model-family rule; raise InvalidModel naming all violations.

    Rules: every scalar and series coefficient finite; nu = lam/gamma > 1;
    beta > lam (strong-stable block dominated); alpha strictly positive on
    the circle (simultaneous splitting, checked only on finite input, by
    the certified grid loop, whose undecided cap counts as a violation); m an
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
        grid_min, _, _, inflation, positive = lipschitz_grid_extrema(
            cfg.alpha.eval, cfg.alpha.deriv_sup_bound())
        alpha_min = grid_min - inflation
        if not positive:
            violations.append("AlphaNotPositive")

    if violations:
        raise InvalidModel(violations)
    return ValidatedModel(cfg, alpha_min=alpha_min)

