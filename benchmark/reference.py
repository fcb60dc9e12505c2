"""Independent scalar reference of the rescaled return map T = T0 o T1.

Built from the model formulas alone (the linear local flow and the global
excursion written out in the module docstring of ``blueskylab.model``) and
from the config-file schema.  It imports nothing from ``blueskylab``, so
the benchmark's correctness checks do not rest on the code they time.

With nu = lambda/gamma, the rescaled coordinates are X = x / (d^(1-nu) mu^nu)
and Y = y / mu^nu.  One step from S1 back to S1 is

    T1: z0     = mu alpha(th) + x Fx(th) + sum_i Fy_i(th) y_i
        y0_i   = g0_i(th) + x Fy_i(th) + Hy_i(th) y_i
        theta0 = m th + h(th) + x Hx(th) + sum_i Hy_i(th) y_i
    T0: x1 = d^(1-nu) z0^nu,  y1 = z0^(beta/gamma) y0,
        theta1 = theta0 + (1/gamma) ln(d / z0)

and the angle is returned as the unreduced lift theta1.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def series_value(spec, theta: float) -> float:
    """Value of a config-schema series ``{"constant", "cos", "sin"}`` (or a bare number)."""
    if isinstance(spec, (int, float)):
        return float(spec)
    value = float(spec.get("constant", 0.0))
    for k, a in enumerate(spec.get("cos", ()), start=1):
        value += a * math.cos(k * theta)
    for k, b in enumerate(spec.get("sin", ()), start=1):
        value += b * math.sin(k * theta)
    return value


class EscapedReference(ValueError):
    """The reference step produced z0 <= 0 (the orbit left the tube)."""


class ReferenceMap:
    """The rescaled return map of one config (a plain JSON mapping) at one mu."""

    def __init__(self, config: dict, mu: float):
        self.cfg = config
        self.mu = float(mu)
        self.m = int(config["m"])
        self.gamma = float(config["gamma"])
        self.lam = float(config["lambda"])
        self.beta = float(config["beta"])
        self.d = float(config["d"])
        self.n = int(config["n"])
        self.k = self.n - 2
        self.nu = self.lam / self.gamma
        self.x_scale = self.d ** (1.0 - self.nu) * self.mu ** self.nu
        self.y_scale = self.mu ** self.nu

    def limit_radial(self, theta: float) -> float:
        """The mu -> 0 limit curve X = alpha(theta)^nu."""
        return series_value(self.cfg["alpha"], theta) ** self.nu

    def step(self, X: float, Y, theta: float):
        """One return: (X, Y, theta) -> (X', Y' as a list, unreduced theta lift)."""
        c = self.cfg
        x = self.x_scale * X
        y = [self.y_scale * v for v in Y]
        fy = [series_value(s, theta) for s in c["coupling_fy"]]
        hy = [series_value(s, theta) for s in c["coupling_hy"]]
        z0 = (self.mu * series_value(c["alpha"], theta)
              + x * series_value(c["coupling_fx"], theta)
              + sum(f * v for f, v in zip(fy, y)))
        if not z0 > 0.0:
            raise EscapedReference(f"z0 = {z0!r} at theta = {theta!r}")
        y0 = [series_value(g, theta) + x * f + h * v
              for g, f, h, v in zip(c["g0"], fy, hy, y)]
        theta0 = (self.m * theta + series_value(c["h"], theta)
                  + x * series_value(c["coupling_hx"], theta)
                  + sum(h * v for h, v in zip(hy, y)))
        x1 = self.d ** (1.0 - self.nu) * z0 ** self.nu
        contraction = z0 ** (self.beta / self.gamma)
        theta1 = theta0 + math.log(self.d / z0) / self.gamma
        return x1 / self.x_scale, [contraction * v / self.y_scale for v in y0], theta1

    def vector_step(self, v: np.ndarray) -> np.ndarray:
        """``step`` on a flat vector (X, Y..., theta)."""
        X, Y, lift = self.step(float(v[0]), v[1:-1], float(v[-1]))
        return np.array([X, *Y, lift])

    def jacobian(self, X: float, Y, theta: float, rel_step: float = 1e-6) -> np.ndarray:
        """Central-difference derivative in (X, Y..., theta), angle on the lift."""
        v0 = np.array([X, *Y, theta], dtype=float)
        jac = np.empty((self.n, self.n))
        for j in range(self.n):
            h = rel_step * max(1.0, abs(v0[j]))
            up, down = v0.copy(), v0.copy()
            up[j] += h
            down[j] -= h
            jac[:, j] = (self.vector_step(up) - self.vector_step(down)) / (2.0 * h)
        return jac

    def orbit(self, X: float, Y, theta: float, steps: int):
        """Iterate ``steps`` returns; the angle is reduced to [0, 2 pi) after each."""
        Y = list(Y)
        for _ in range(steps):
            X, Y, lift = self.step(X, Y, theta)
            theta = lift % TWO_PI
        return X, Y, theta

    def fixed_point_angle(self, theta: float = 0.5, tol: float = 1e-14,
                          max_steps: int = 20000) -> float:
        """Angle of the attracting fixed point (degree 0) by forward iteration
        from the limit curve; stops when a step moves the angle less than ``tol``."""
        X, Y = self.limit_radial(theta), [0.0] * self.k
        for _ in range(max_steps):
            X, Y, lift = self.step(X, Y, theta)
            new = lift % TWO_PI
            if circle_distance(new, theta) < tol:
                return new
            theta = new
        raise RuntimeError(f"reference orbit did not settle within {max_steps} steps")


def circle_distance(a: float, b: float) -> float:
    """Unsigned distance of two angles on the circle."""
    d = (a - b) % TWO_PI
    return min(d, TWO_PI - d)
