#!/usr/bin/env python3
"""Degree 0: a single stable periodic orbit whose period blows up.

Splitting the homoclinic connection at degree m = 0 creates one stable
fixed point of the return map.  Its flight time through the linear
neighborhood grows like (1/gamma) ln(1/mu), so the orbit's period goes to
infinity as mu -> 0+ while the orbit itself never bifurcates.
"""

from pathlib import Path

import numpy as np

import blueskylab as bsl

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "demo_m0.json"


def main():
    model = bsl.load_model(CONFIG)
    print(f"model: m={model.m}, gamma={model.gamma}, nu={model.nu:.3f}")
    print(f"saddle multipliers: rho1={model.rho1:.4g}, rho_n={model.rho_n:.4g}, "
          f"|rho1*rho_n|={abs(model.rho1 * model.rho_n):.4g} < 1")

    report = bsl.check_case(model)
    print(f"\nstable-orbit condition sup|s| < 1: verdict={report.verdict}, "
          f"margin={report.margin:.4f}")

    print("\nfixed point of the return map as mu shrinks:")
    print(f"{'mu':>12} {'theta*':>10} {'X*':>8} {'max|mult|':>11} {'period':>10}")
    for mu in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
        fp = bsl.find_fixed_point(model, mu)
        print(f"{mu:12.1e} {fp.point.theta:10.6f} {fp.point.X:8.4f} "
              f"{np.max(np.abs(fp.multipliers)):11.3e} {fp.flight + 1.0:10.4f}")

    records = bsl.mu_sweep(model, bsl.geometric_mu_grid(1e-8, 1e-3))
    fit = bsl.fit_period_scaling(records)
    print(f"\nperiod_proxy vs ln(1/mu) over {fit.points} points:")
    print(f"  fitted slope = {fit.slope:.6f}   (1/gamma = {1.0 / model.gamma:.6f})")
    print(f"  r^2 = {fit.r_squared:.8f}")
    print("the slope recovers the inverse unstable rate: the period diverges "
          "logarithmically, the signature of the orbit disappearing into the blue sky")


if __name__ == "__main__":
    main()
