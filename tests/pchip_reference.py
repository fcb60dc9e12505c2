"""The piecewise-cubic (PCHIP) graph transform, kept as a test oracle.

This is the |m| = 1 invariant-curve solve that ``graph_transform_curve``
replaced with a trigonometric interpolant: it iterates on the nodes of the
requested grid and reparametrizes each image by monotone cubic
interpolation on the angular lift, periodic over the turn.
``tests/data/curve_reference.npz`` holds every 1,024th node of its 2^17-node
curves on demo_m1 and demo_m-1 at nine ``mu``; rebuild it with

    PYTHONPATH=src python tests/pchip_reference.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import blueskylab as bsl
from blueskylab.fourier import TWO_PI
from blueskylab.model import reduce_angle

# nodes and targets that a periodic PCHIP evaluation holds at once
PCHIP_BLOCK = 8192

REFERENCE_FILE = Path(__file__).resolve().parent / "data" / "curve_reference.npz"
REFERENCE_MUS = np.logspace(-6, -2, 9)
REFERENCE_NODES = 2 ** 17
REFERENCE_STRIDE = 1024


def _periodic_interp(radial, theta):
    """Linear interpolation at ``theta`` of node rows ``radial`` given on a
    uniform grid over one turn; shape theta.shape + radial.shape[1:].  It
    defines the oracle's residual."""
    # the cell index lies in [0, n], so it and the next node wrap at most once
    pos = reduce_angle(np.asarray(theta, dtype=float)) / (TWO_PI / len(radial))
    base = np.floor(pos)
    i0, frac = base.astype(np.intp), pos - base
    return (1.0 - frac)[..., None] * radial.take(i0, axis=0, mode="wrap") \
        + frac[..., None] * radial.take(i0 + 1, axis=0, mode="wrap")


def periodic_pchip(w, values, targets):
    """Monotone cubic (PCHIP) interpolation at ``targets`` of the closed
    curve through the nodes ``w`` (strictly increasing, w[-1] < w[0] + 2 pi)
    with value rows ``values`` (shape (rows, N)); shape (rows, targets.size).
    Every target must lie in [w[-1] - 2 pi, w[1] + 2 pi).

    The nodes are padded periodically by the last two nodes on the left and
    the first three on the right, shifted by a turn, so every interval that
    holds a target has the interior slopes of the periodic curve (Fritsch &
    Butland's weighted harmonic mean, zero at a flat secant or a sign
    change).  The slopes, the Hermite coefficients and their evaluation in
    power form take the formulas and the order of scipy's
    ``PchipInterpolator``, so the result equals it bit for bit on any
    periodic padding that gives those intervals interior slopes; a target
    on w[0] + 2 pi is the first node's value, as there.  Nodes and targets
    go through in blocks of PCHIP_BLOCK, so the temporaries stay in cache.
    """
    x = np.concatenate([w[-2:] - TWO_PI, w, w[:3] + TWO_PI])
    y = np.concatenate([values[:, -2:], values, values[:, :3]], axis=1)
    h = np.diff(x)
    slope = np.diff(y, axis=1)
    slope /= h
    # d[:, j] is the slope at node x[j + 1], from intervals j and j + 1
    d = np.empty((len(y), len(h) - 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in range(0, d.shape[1], PCHIP_BLOCK):
            b = min(a + PCHIP_BLOCK, d.shape[1])
            h0, h1 = h[a:b], h[a + 1 : b + 1]
            m0, m1 = slope[:, a:b], slope[:, a + 1 : b + 1]
            flat = (np.sign(m1) != np.sign(m0)) | (m1 == 0) | (m0 == 0)
            w1 = 2 * h1 + h0
            w2 = h1 + 2 * h0
            whmean = (w1 / m0 + w2 / m1) / (w1 + w2)
            block = np.divide(1.0, whmean, out=d[:, a:b])
            block[flat] = 0.0

    out = np.empty((len(y), len(targets)))
    nodes = np.arange(len(x), dtype=float)
    for a in range(0, len(targets), PCHIP_BLOCK):
        t = targets[a : a + PCHIP_BLOCK]
        # the interval [x[i], x[i+1]) of each target: np.interp finds it
        # from the last target's (they run in two sorted blocks), and a
        # position it rounds up onto x[i+1] steps back
        i = np.interp(t, x, nodes).astype(np.intp)
        i -= x.take(i) > t
        s = t - x.take(i)
        dx = h.take(i)
        value = y.take(i, axis=1)
        c1 = slope.take(i, axis=1)
        c0 = d.take(i, axis=1)
        d0 = d.take(i - 1, axis=1)
        c0 += d0
        c0 -= 2 * c1
        c0 /= dx
        c1 -= d0
        c1 /= dx
        c1 -= c0
        c0 /= dx
        # the cubic in power form, summed onto +0.0 from the constant term up
        # as PPoly does (so a -0.0 node value sums as there)
        value += 0.0
        value += d0 * s
        s2 = s * s
        c1 *= s2
        value += c1
        s2 *= s
        c0 *= s2
        value += c0
        out[:, a : a + PCHIP_BLOCK] = value
    return out


def pchip_graph_transform(model: bsl.ValidatedModel, mu: float, grid_size: int = 1024,
                          tol: float = 1e-8) -> bsl.InvariantCurve:
    """The graph transform on ``grid_size`` uniform nodes, from the limit
    curve (X, Y) = (alpha(theta)^nu, 0): each step maps the nodes with
    ``rescaled_step`` and takes the PCHIP of the image rows at the node
    angles.  Stops once the residual (the distance from each image node to
    the linearly interpolated iterate at its image angle, summed over the
    node's rows) drops below ``tol``; NoConvergence after 50 steps without
    improvement or 10^4 steps, NotACircleMap where the lift is not
    monotone along the nodes.  The curve's ``coef`` are the ``np.fft.rfft``
    rows of its nodes."""
    theta = np.arange(grid_size) * (TWO_PI / grid_size)
    radial = np.zeros((1 + model.ydim, grid_size))
    radial[0] = model.limit_radial(theta)

    residual = best = np.inf
    stalled = 0
    for _ in range(10 ** 4):
        Xb, Yb, lift, _ = model.rescaled_step(radial[0], radial[1:], theta, mu)
        diffs = np.diff(lift)
        if np.all(diffs > 0.0) and lift[-1] < lift[0] + TWO_PI:
            sign = 1.0
        elif np.all(diffs < 0.0) and lift[-1] > lift[0] - TWO_PI:
            sign = -1.0
        else:
            raise bsl.NotACircleMap("angular component is not strictly monotone along the curve")
        interp = _periodic_interp(np.ascontiguousarray(radial.T), lift)
        dy = Yb.T - interp[:, 1:]
        residual = float(np.max(np.sqrt((Xb - interp[:, 0]) ** 2 + np.sum(dy ** 2, axis=1))))
        if residual < tol:
            break
        stalled = stalled + 1 if residual > 0.9999 * best else 0
        best = min(best, residual)
        if stalled >= 50:
            raise bsl.NoConvergence(f"PCHIP graph transform stagnated at residual {residual:.3e}")
        w = sign * lift
        targets = sign * theta
        targets = targets + TWO_PI * np.ceil((w[0] - targets) / TWO_PI)
        radial = periodic_pchip(w, np.concatenate([Xb[None], Yb]), targets)
    else:
        raise bsl.NoConvergence(f"PCHIP graph transform residual {residual:.3e} after 10^4 steps")

    orientation = bsl.Orientation.PRESERVING if sign > 0 else bsl.Orientation.REVERSING
    return bsl.InvariantCurve(np.ascontiguousarray(radial.T), residual, orientation,
                              np.fft.rfft(radial))


def reference_curves() -> dict:
    """The contents of REFERENCE_FILE, computed afresh."""
    from helpers import demo_model

    out = {"mu": REFERENCE_MUS}
    for name in ("demo_m1", "demo_m-1"):
        model = demo_model(name)
        out[name] = np.stack([
            pchip_graph_transform(model, mu, REFERENCE_NODES).radial_values[::REFERENCE_STRIDE]
            for mu in REFERENCE_MUS])
    return out


if __name__ == "__main__":
    np.savez(REFERENCE_FILE, **reference_curves())
    print(f"wrote {REFERENCE_FILE}")
