#!/usr/bin/env python3
"""Degree 2: a certified uniformly hyperbolic solenoid.

At |m| >= 2 the return map squeezes the solid torus, stretches it around
itself m times, and produces a Smale-Williams solenoid.  The cone
conditions on the cross-form partial derivatives certify uniform
hyperbolicity with explicit margins, the Lyapunov spectrum shows one
expanding and otherwise contracting directions, and symbolic itineraries
shadow the conjugacy to the degree-m expanding circle map.
"""

from pathlib import Path

import numpy as np

import blueskylab as bsl

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "demo_m2.json"
MU = 1e-5


def main():
    model = bsl.load_model(CONFIG)
    print(f"model: m={model.m}, nu={model.nu:.3f}")

    report = bsl.check_case(model)
    print(f"expansion condition inf|m + s| > 1: verdict={report.verdict}, "
          f"min={report.criterion_min:.4f}")

    K = model.trapping_radius(MU)
    print(f"\ncertified trapping solid torus: |X - alpha(theta)^nu| < {K:.4f}")

    cert = bsl.cone_certify(model, MU, grid=256)
    bound = cert.certified
    print("\ncone certificate (certified bounds over the trapping torus):")
    print(f"  |dp/dr| <= {bound['pr']:.3e}   |dp/dtheta| <= {bound['ptheta']:.4f}")
    print(f"  |(dq/dtheta)^-1| <= {1.0 / bound['qtheta_lower']:.4f}   "
          f"|dq/dr| <= {bound['qr']:.3e}")
    print(f"  sample maxima: |dp/dr| {cert.sup_pr:.3e}   |dp/dtheta| {cert.sup_ptheta:.4f}   "
          f"|(dq/dtheta)^-1| {cert.sup_qtheta_inv:.4f}   |dq/dr| {cert.sup_qr:.3e}")
    low, high = cert.L_interval
    high_txt = "inf" if np.isinf(high) else f"{high:.4g}"
    print(f"  certified admissible cone apertures: L in ({low:.4g}, {high_txt})")
    print(f"  certified angular expansion >= {cert.expansion_lower_bound:.4f}")
    print(f"  verdict: {cert.verdict}")

    spectrum = bsl.lyapunov_spectrum(model, MU, 200_000, transient=2000)
    shown = ["-inf" if not np.isfinite(e) else f"{e:+.4f}" for e in spectrum.exponents]
    print(f"\nLyapunov spectrum over 2e5 returns: [{', '.join(shown)}]")
    print(f"  top exponent vs ln(certified expansion): "
          f"{spectrum.exponents[0]:.4f} >= {np.log(cert.expansion_lower_bound):.4f}")

    itin = bsl.itinerary_semiconjugacy(model, MU, depth=12, samples=8192)
    print(f"\nsymbolic coding over {itin.n_symbols} branches, {itin.samples} orbits:")
    print(f"  branch/winding consistency at every step: {itin.shift_consistent}")
    print(f"  itinerary-cell diameter ~ C * rho^depth with rho = {itin.contraction_ratio:.4f} "
          f"(<= 1/expansion = {1.0 / itin.expansion_lower_bound:.4f})")
    k, diam = itin.max_diameter_by_depth[-1]
    print(f"  depth-{k} cells have diameter <= {diam:.2e}")

    record = bsl.classify_attractor(model, MU)
    print(f"\nclassification: {record.label.value}")


if __name__ == "__main__":
    main()
