"""Real trigonometric polynomials on the circle.

All angular profiles of the return-map model (the splitting profile, the
phase shift, the coupling profiles) are carried as finite Fourier series

    f(theta) = c0 + sum_k a_k cos(k theta) + b_k sin(k theta),

which gives exact derivatives and cheap, certified sup-norm bounds
(|c0| + sum |a_k| + |b_k|).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["FourierSeries", "lipschitz_grid_extrema"]

TWO_PI = 2.0 * np.pi
DEFAULT_GRID = 4096      # starting grid of the certified extrema
GRID_CAP = 2 ** 20       # and the grid at which they stop


@dataclass(frozen=True)
class FourierSeries:
    """A 2*pi-periodic trigonometric polynomial with real coefficients."""

    constant_term: float = 0.0
    cosine_coeffs: tuple[float, ...] = field(default_factory=tuple)
    sine_coeffs: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "constant_term", float(self.constant_term))
        object.__setattr__(self, "cosine_coeffs", tuple(float(a) for a in self.cosine_coeffs))
        object.__setattr__(self, "sine_coeffs", tuple(float(b) for b in self.sine_coeffs))

    @classmethod
    def zero(cls) -> "FourierSeries":
        return cls(0.0)

    @classmethod
    def constant(cls, value: float) -> "FourierSeries":
        return cls(float(value))

    @property
    def degree(self) -> int:
        return max(len(self.cosine_coeffs), len(self.sine_coeffs))

    def eval(self, theta):
        """Evaluate at ``theta`` (scalar or ndarray)."""
        theta = np.asarray(theta, dtype=float)
        out = np.full(theta.shape, self.constant_term)
        for k, a in enumerate(self.cosine_coeffs, start=1):
            out = out + a * np.cos(k * theta)
        for k, b in enumerate(self.sine_coeffs, start=1):
            out = out + b * np.sin(k * theta)
        return out if out.ndim else float(out)

    __call__ = eval

    def deriv(self) -> "FourierSeries":
        """Exact derivative series: d/dtheta maps (a_k, b_k) -> (k b_k, -k a_k)."""
        deg = self.degree
        a = np.zeros(deg)
        b = np.zeros(deg)
        a[: len(self.cosine_coeffs)] = self.cosine_coeffs
        b[: len(self.sine_coeffs)] = self.sine_coeffs
        k = np.arange(1, deg + 1)
        return FourierSeries(0.0, tuple(k * b), tuple(-k * a))

    def sup_bound(self) -> float:
        """Upper bound on sup |f|: |c0| + sum |a_k| + sum |b_k|."""
        return (
            abs(self.constant_term)
            + sum(abs(a) for a in self.cosine_coeffs)
            + sum(abs(b) for b in self.sine_coeffs)
        )

    def deriv_sup_bound(self) -> float:
        """Upper bound on sup |f'|: sum k (|a_k| + |b_k|)."""
        total = 0.0
        for k, a in enumerate(self.cosine_coeffs, start=1):
            total += k * abs(a)
        for k, b in enumerate(self.sine_coeffs, start=1):
            total += k * abs(b)
        return total

    def scaled(self, factor: float) -> "FourierSeries":
        return FourierSeries(
            factor * self.constant_term,
            tuple(factor * a for a in self.cosine_coeffs),
            tuple(factor * b for b in self.sine_coeffs),
        )

    def to_dict(self) -> dict:
        return {
            "constant": self.constant_term,
            "cos": list(self.cosine_coeffs),
            "sin": list(self.sine_coeffs),
        }

    @classmethod
    def from_dict(cls, data) -> "FourierSeries":
        """Build from a ``{"constant": c, "cos": [...], "sin": [...]}`` mapping.

        A bare number is accepted as shorthand for a constant series.
        """
        if isinstance(data, (int, float)):
            return cls.constant(data)
        if not isinstance(data, dict):
            raise TypeError(f"expected mapping or number for a series, got {type(data).__name__}")
        unknown = set(data) - {"constant", "cos", "sin"}
        if unknown:
            raise ValueError(f"unknown series keys: {sorted(unknown)}")
        return cls(
            data.get("constant", 0.0),
            tuple(data.get("cos", ())),
            tuple(data.get("sin", ())),
        )


def lipschitz_grid_extrema(values, lip: float, grid_size: int, done):
    """Extrema of ``values(theta)`` on a uniform grid of the circle, doubled
    until ``done(vmin, vmax, inflation)`` holds or the grid reaches GRID_CAP.
    A function with Lipschitz constant ``lip`` lies within ``inflation`` =
    lip * (half grid spacing) of its grid values.  Returns (vmin, vmax,
    grid, inflation, status), ``status`` False when stopped by the cap."""
    grid = max(8, int(grid_size))
    while True:
        theta = np.arange(grid) * (TWO_PI / grid)
        vals = values(theta)
        vmin, vmax = float(np.min(vals)), float(np.max(vals))
        inflation = lip * np.pi / grid
        if done(vmin, vmax, inflation):
            return vmin, vmax, grid, inflation, True
        if grid >= GRID_CAP:
            return vmin, vmax, grid, inflation, False
        grid *= 2
