"""Shared builders and oracles for the test suite."""

from __future__ import annotations

from pathlib import Path

import numpy as np

import blueskylab as bsl
from blueskylab import FourierSeries
from blueskylab.fourier import uniform_grid
from blueskylab.model import reduce_angle

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

F = FourierSeries


# the exact certified record of the skew map r_bar = 0.3 r + 0.1 cos(theta),
# theta_bar = 2 theta: |dp/dr| = 0.3, |dp/dtheta| <= 0.1, dq/dr = 0,
# dq/dtheta = 2, and its cross form (theta from theta_bar) 0.3, 0.05
SKEW_MAP_RECORD = {"pr": 0.3, "ptheta": 0.1, "qr": 0.0, "qtheta_lower": 2.0,
                   "cross_pr": 0.3, "cross_ptheta_bar": 0.05}


def demo_model(name: str) -> bsl.ValidatedModel:
    return bsl.load_model(CONFIG_DIR / f"{name}.json")


def trig_interpolant(values, theta):
    """The trigonometric interpolant of ``values`` (rows, N even) on N
    uniform nodes over one turn, at the 1-d angles ``theta``: one cosine
    and sine pair per mode, the Nyquist mode as a cosine of half weight."""
    n = values.shape[1]
    nodes = np.arange(n) * (2.0 * np.pi / n)
    out = np.zeros((len(values), len(theta)))
    for k in range(n // 2 + 1):
        a = values @ np.cos(k * nodes) * (2.0 / n)
        b = values @ np.sin(k * nodes) * (2.0 / n)
        half = 0.5 if k in (0, n // 2) else 1.0
        out += half * (np.outer(a, np.cos(k * theta)) + np.outer(b, np.sin(k * theta)))
    return out


def uncoupled_config(m=0, gamma=1.0, lam=2.0, beta=3.5, d=1.0, n=3,
                     alpha=None, h=None) -> bsl.ModelConfig:
    """Model with all couplings and g0 identically zero."""
    k = n - 2
    return bsl.ModelConfig(
        m=m, gamma=gamma, lam=lam, beta=beta, d=d, n=n,
        alpha=alpha if alpha is not None else F.constant(1.0),
        h=h if h is not None else F.zero(),
        coupling_fy=(F.zero(),) * k, coupling_hy=(F.zero(),) * k,
        g0=(F.zero(),) * k,
    )


def coupled_config(m, gamma=1.0, lam=None, beta=None, d=1.0, n=3,
                   alpha=None, h=None, scale=1e-3) -> bsl.ModelConfig:
    """Model with every coupling pathway populated at a common amplitude."""
    lam = lam if lam is not None else 1.8 * gamma
    beta = beta if beta is not None else 1.8 * lam
    k = n - 2
    fy = tuple(F(scale, (), (scale / (i + 1),)) for i in range(k))
    hy = tuple(F(scale, (scale / (2 * i + 2),), ()) for i in range(k))
    g0 = tuple(F(0.1 / (i + 1), (0.05,), ()) for i in range(k))
    return bsl.ModelConfig(
        m=m, gamma=gamma, lam=lam, beta=beta, d=d, n=n,
        alpha=alpha if alpha is not None else F(1.0, (0.2,), ()),
        h=h if h is not None else F(0.0, (), (0.15,)),
        coupling_fx=F(scale, (scale,), ()),
        coupling_hx=F(scale, (), (scale / 2,)),
        coupling_fy=fy, coupling_hy=hy, g0=g0,
    )


def _random_series(rng, max_degree, scale) -> FourierSeries:
    deg = int(rng.integers(0, max_degree + 1))
    weights = 1.0 / (1.0 + np.arange(deg))
    return F(
        scale * rng.uniform(-1.0, 1.0),
        tuple(scale * weights * rng.uniform(-1.0, 1.0, deg)),
        tuple(scale * weights * rng.uniform(-1.0, 1.0, deg)),
    )


def allowed_degrees(n: int) -> list[int]:
    if n == 2:
        return [1]
    if n == 3:
        return [-1, 0, 1]
    return [-3, -2, -1, 0, 1, 2, 3]


def random_config(rng, m=None, n=None, coupling_scale=1e-2) -> bsl.ModelConfig:
    """A random configuration satisfying every model-family rule."""
    n = int(n) if n is not None else int(rng.integers(2, 6))
    if m is None:
        m = int(rng.choice(allowed_degrees(n)))
    gamma = rng.uniform(0.5, 1.5)
    lam = gamma * rng.uniform(1.3, 2.4)
    beta = lam * rng.uniform(1.3, 2.0)
    d = rng.uniform(0.5, 2.0)
    k = n - 2
    bump = _random_series(rng, 3, 0.15)
    alpha = F(1.0 + bump.constant_term, bump.cosine_coeffs, bump.sine_coeffs)
    return bsl.ModelConfig(
        m=m, gamma=gamma, lam=lam, beta=beta, d=d, n=n,
        alpha=alpha,
        h=_random_series(rng, 3, 0.2),
        coupling_fx=_random_series(rng, 2, coupling_scale),
        coupling_hx=_random_series(rng, 2, coupling_scale),
        coupling_fy=tuple(_random_series(rng, 2, coupling_scale) for _ in range(k)),
        coupling_hy=tuple(_random_series(rng, 2, coupling_scale) for _ in range(k)),
        g0=tuple(_random_series(rng, 2, 0.2) for _ in range(k)),
    )


def fd_jacobian(model, mu, X, Y, theta, rel_step=1e-6) -> np.ndarray:
    """Central-difference derivative of the rescaled step on the lift."""
    v0 = np.concatenate(([X], np.atleast_1d(Y), [theta]))
    n = v0.size

    def f(v):
        Xb, Yb, lift, _ = model.rescaled_step(v[0], v[1 : n - 1], v[n - 1], mu)
        return np.concatenate(([float(Xb)], np.atleast_1d(Yb), [float(lift)]))

    out = np.empty((n, n))
    for j in range(n):
        step = rel_step * max(1.0, abs(v0[j]))
        vp = v0.copy()
        vp[j] += step
        vm = v0.copy()
        vm[j] -= step
        out[:, j] = (f(vp) - f(vm)) / (2.0 * step)
    return out


def advance(model, mu, X, Y, theta, steps):
    """Iterate the rescaled map on a batch; returns final (X, Y, theta)."""
    from blueskylab.model import reduce_angle

    for _ in range(steps):
        Xb, Yb, lift, _ = model.rescaled_step(X, Y, theta, mu)
        X, Y, theta = Xb, Yb, reduce_angle(lift)
    return X, Y, theta


def check_trapping(model, mu) -> bool:
    """Sample oracle of the certified trapping torus: the image of every
    ``trapping_samples`` point (core and face centres, 128 angles) lies
    strictly inside the torus of radius ``trapping_radius(mu)``."""
    K = model.trapping_radius(mu)
    th, X, Y = model.trapping_samples(next(uniform_grid(128)), K)
    Xb, Yb, th_lift, _ = model.rescaled_step(X, Y, th, mu)
    dev = np.abs(Xb - model.limit_radial(reduce_angle(th_lift)))
    y_norm = np.sqrt(np.sum(Yb ** 2, axis=0))
    return bool(np.all(dev < K) and np.all(y_norm < K))


def random_region_points(rng, model, mu, count):
    """Points in the trapping torus: (X, Y, theta) batch arrays."""
    K = model.trapping_radius(mu)
    theta = rng.uniform(0.0, 2.0 * np.pi, count)
    X = model.limit_radial(theta) + K * rng.uniform(-0.9, 0.9, count)
    Y = K / max(1, model.ydim) * rng.uniform(-0.9, 0.9, (model.ydim, count))
    return X, Y, theta
