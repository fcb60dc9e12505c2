"""Real trigonometric polynomials on the circle.

All angular profiles of the return-map model (the splitting profile, the
phase shift, the coupling profiles) are carried as finite Fourier series

    f(theta) = c0 + sum_k a_k cos(k theta) + b_k sin(k theta),

which gives exact derivatives and cheap, certified sup-norm bounds
(|c0| + sum |a_k| + |b_k|).  ``SeriesBank`` is the one evaluator of these
sums: it stacks the coefficients of several series and their derivatives
and evaluates them together in two matrix products per batch of angles.
A single series evaluates as a one-row bank.  ``lipschitz_grid_extrema`` is
the one certified grid loop and the one place that turns grid extrema into
a verdict: False for a grid margin < 0, True for a margin above the
Lipschitz inflation, and None (undecided) at the grid cap, so a zero margin
is never decided.  It doubles its grid by evaluating only the new
midpoints, in blocks that are each a uniform grid of the whole circle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from numbers import Real

import numpy as np

__all__ = ["FourierSeries", "SeriesBank", "lipschitz_grid_extrema", "uniform_grid"]

TWO_PI = 2.0 * np.pi
DEFAULT_GRID = 4096      # starting grid of the certified extrema, uniform_grid's block
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
        """Evaluate at ``theta``: an ndarray of its shape, a float for a scalar."""
        out = self._bank.eval(theta)[0]
        return out if out.ndim else float(out)

    @cached_property
    def _bank(self) -> "SeriesBank":
        return SeriesBank([self], derivatives=False)

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

        A bare number is accepted as shorthand for a constant series.  Raises
        ValueError for anything else, for an unknown key, for a ``constant``
        that is not a number and for ``cos`` or ``sin`` that is not a list
        of numbers.
        """
        if isinstance(data, Real):
            return cls.constant(data)
        if not isinstance(data, dict):
            raise ValueError(f"expected a mapping or a number for a series, "
                             f"got {type(data).__name__}")
        unknown = set(data) - {"constant", "cos", "sin"}
        if unknown:
            raise ValueError(f"unknown series keys: {sorted(unknown)}")
        constant = data.get("constant", 0.0)
        if not isinstance(constant, Real):
            raise ValueError(f"series constant must be a number, got {type(constant).__name__}")
        for key in ("cos", "sin"):
            coef = data.get(key, ())
            if not isinstance(coef, (list, tuple)) or not all(isinstance(c, Real) for c in coef):
                raise ValueError(f"series {key} must be a list of numbers")
        return cls(constant, tuple(data.get("cos", ())), tuple(data.get("sin", ())))


class SeriesBank:
    """Stacked coefficient matrices of several series (and, with
    ``derivatives``, of their derivatives), evaluated together in two
    matrix products per batch of angles."""

    def __init__(self, series: list[FourierSeries], derivatives: bool = True):
        rows = list(series) + ([s.deriv() for s in series] if derivatives else [])
        n_cos = max((len(s.cosine_coeffs) for s in rows), default=0)
        n_sin = max((len(s.sine_coeffs) for s in rows), default=0)
        self.n_rows = len(rows)
        self.n_base = len(series)
        self.degree = max(n_cos, n_sin)
        self.cos_mat = np.zeros((self.n_rows, n_cos + 1))
        self.sin_mat = np.zeros((self.n_rows, n_sin))
        for i, s in enumerate(rows):
            self.cos_mat[i, 0] = s.constant_term
            self.cos_mat[i, 1 : 1 + len(s.cosine_coeffs)] = s.cosine_coeffs
            self.sin_mat[i, : len(s.sine_coeffs)] = s.sine_coeffs
        self.k_cos = np.arange(n_cos + 1, dtype=float)
        self.k_sin = np.arange(1, n_sin + 1, dtype=float)

    def eval(self, theta, derivatives: bool = False) -> np.ndarray:
        """Values of the series at ``theta``, shape (n_base,) + theta.shape;
        with ``derivatives`` (of a bank built with them) their derivatives
        follow, shape (n_rows,) + theta.shape.  Holds (degree + 1) x
        theta.size cos and sin values."""
        theta = np.asarray(theta, dtype=float)
        rows = self.n_rows if derivatives else self.n_base
        # np.dot on flattened angles: the product tensordot makes, without
        # its per-call overhead (most of a single-point evaluation)
        cb = np.cos(np.multiply.outer(self.k_cos, theta)).reshape(len(self.k_cos), theta.size)
        sb = np.sin(np.multiply.outer(self.k_sin, theta)).reshape(len(self.k_sin), theta.size)
        vals = np.dot(self.cos_mat[:rows], cb) + np.dot(self.sin_mat[:rows], sb)
        return vals.reshape((rows,) + theta.shape)


def uniform_grid(grid: int):
    """The uniform grid of ``grid`` angles on the circle, point i at
    i * 2*pi/grid, yielded in contiguous blocks of at most DEFAULT_GRID
    angles (the last one short when they do not fill it; none for a grid
    of 0).  A caller that folds over the blocks holds one block at a time,
    so its memory does not grow with the grid."""
    for start in range(0, grid, DEFAULT_GRID):
        yield np.arange(start, min(start + DEFAULT_GRID, grid)) * (TWO_PI / grid)


def lipschitz_grid_extrema(values, lip: float, margin=lambda vmin, vmax: vmin):
    """Extrema of ``values(theta)`` on a uniform grid of the circle and the
    verdict on the strict inequality ``margin(vmin, vmax) > 0`` over the
    whole circle.  A function with Lipschitz constant ``lip`` lies within
    ``inflation`` = lip * (half grid spacing) of its grid values.  The grid
    starts at DEFAULT_GRID points and doubles until the grid margin decides:
    verdict False as soon as it is < 0 (a grid angle violates the
    inequality), True once it is > inflation, and None when the grid
    reaches GRID_CAP with 0 <= margin <= inflation, so a zero margin is
    never decided.  Returns (vmin, vmax, grid, inflation, verdict), the
    verdict a bool or None.

    Refinement is nested: a doubled grid evaluates only its new (odd)
    points and folds them into the running extrema of the coarser grids,
    whose points it keeps bit for bit, so every angle is evaluated once
    (GRID_CAP angles in all at the cap).  Each call of ``values`` gets one
    whole-circle block, the angles theta[0] + 2*pi*j/DEFAULT_GRID for j <
    DEFAULT_GRID (each computed as i * 2*pi/grid), so memory does not grow
    with the grid; min and max are exact, so the extrema are those of one
    evaluation on the whole grid."""
    grid, step = DEFAULT_GRID, 1
    vmin, vmax = np.inf, -np.inf
    while True:
        stride = grid // DEFAULT_GRID
        for first in range(step - 1, stride, step):
            vals = values(np.arange(first, grid, stride) * (TWO_PI / grid))
            vmin, vmax = np.minimum(vmin, np.min(vals)), np.maximum(vmax, np.max(vals))
        vmin, vmax = float(vmin), float(vmax)
        inflation = lip * np.pi / grid
        raw = margin(vmin, vmax)
        if raw < 0.0 or raw > inflation:
            return vmin, vmax, grid, inflation, bool(raw > inflation)
        if grid >= GRID_CAP:
            return vmin, vmax, grid, inflation, None
        grid, step = 2 * grid, 2
