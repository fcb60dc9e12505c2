#!/usr/bin/env python3
"""Degree +-1: an attracting invariant curve, torus or Klein bottle.

At |m| = 1 the annulus-type contraction produces a smooth closed invariant
curve of the return map; in the flow it suspends to an invariant torus
when the circle map preserves orientation (m = 1) and to a Klein bottle
when it reverses it (m = -1).  The graph transform returns the curve as a
trigonometric polynomial whose circle map is certified monotone; the
samples printed below are only its output grid, and the orbit distances
are measured against the polynomial itself (``radial_at``).
"""

from pathlib import Path

import numpy as np

import blueskylab as bsl
from blueskylab.model import reduce_angle

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
MU = 1e-4


def show(name):
    model = bsl.load_model(CONFIGS / f"{name}.json")
    print(f"\n== {name}: m={model.m} ==")
    report = bsl.check_case(bsl.CaseTag.TORUS_OR_KLEIN, model)
    print(f"curve condition 1 + m*s > 0: verdict={report.verdict}, "
          f"min={report.criterion_min:.4f}")

    diag = bsl.annulus_diagnostic(model, MU)
    print(f"annulus contraction inequality: lhs={diag.lhs:.5f} > rhs={diag.rhs:.5f} "
          f"-> {diag.satisfied}")

    curve = bsl.graph_transform_curve(model, MU, grid_size=2 ** 15)
    print(f"graph transform: trigonometric polynomial sampled on {len(curve.radial_values)} "
          f"angles, residual at its nodes={curve.residual_sup:.2e}, "
          f"orientation={curve.orientation.value}")
    print(f"curve radial range: X in [{curve.X.min():.4f}, {curve.X.max():.4f}]")

    # every orbit falls onto the curve: distances to the solved polynomial
    rng = np.random.default_rng(1)
    K = model.trapping_radius(MU)
    theta = rng.uniform(0.0, 2.0 * np.pi, 25)
    X = model.limit_radial(theta) + K * rng.uniform(-0.5, 0.5, 25)
    Y = np.zeros((model.ydim, 25))
    for _ in range(500):
        Xb, Yb, lift, _ = model.rescaled_step(X, Y, theta, MU)
        X, Y, theta = Xb, Yb, reduce_angle(lift)
    on_curve = curve.radial_at(theta)
    dist = np.sqrt((X - on_curve[:, 0]) ** 2 + np.sum((Y.T - on_curve[:, 1:]) ** 2, axis=1))
    print(f"25 random orbits after 500 returns: max distance to curve = {dist.max():.2e}")

    record = bsl.classify_attractor(model, MU)
    print(f"classification: {record.label.value}")


def main():
    show("demo_m1")
    show("demo_m-1")
    print("\nthe same contraction mechanism, opposite orientation: the flow "
          "suspension glues the curve into a torus or a Klein bottle")


if __name__ == "__main__":
    main()
