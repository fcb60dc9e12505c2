"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import blueskylab as bsl
from blueskylab import (
    CaseTag,
    FourierSeries as F,
    certify_jacobian_field,
    circle_degree,
    cone_certify,
    find_fixed_point,
    fit_period_scaling,
    geometric_mu_grid,
    graph_transform_curve,
    lyapunov_spectrum,
    mu_sweep,
    threshold_study,
    validate_config,
)
from blueskylab.analysis import Orientation, _sample_maxima
from blueskylab.cli import main as cli_main

from helpers import (
    CONFIG_DIR,
    SKEW_MAP_RECORD,
    advance,
    coupled_config,
    demo_model,
    random_config,
    random_region_points,
    uncoupled_config,
)

TWO_PI = 2.0 * np.pi


@contextmanager
def criterion(tag: str, limit_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {tag}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] {tag}: PASS ({elapsed:.2f}s, limit {limit_seconds:.0f}s)")
    assert elapsed < limit_seconds


def test_c01_homoclinic_identity():
    with criterion("C1 homoclinic identity", 1.0):
        rng = np.random.default_rng(101)
        for _ in range(20):
            model = validate_config(random_config(rng))
            theta = rng.uniform(0.0, TWO_PI, 10 ** 4)
            z0, _, _ = model.t1_raw(0.0, np.zeros((model.ydim, theta.size)), theta, 0.0)
            assert np.all(z0 == 0.0)


def _batched_fd(model, mu, X, Y, theta, rel_step=1e-6):
    count = X.size
    n = model.n

    def f(Xv, Yv, thv):
        Xb, Yb, lift, _ = model.rescaled_step(Xv, Yv, thv, mu)
        return np.concatenate([Xb[None], Yb.reshape(model.ydim, count), lift[None]], axis=0)

    jac = np.empty((count, n, n))
    coords = [X] + [Y[i] for i in range(model.ydim)] + [theta]
    for j, coord in enumerate(coords):
        step = rel_step * np.maximum(1.0, np.abs(coord))

        def shifted(sign):
            Xs, Ys, ths = X.copy(), Y.copy(), theta.copy()
            if j == 0:
                Xs = X + sign * step
            elif j == n - 1:
                ths = theta + sign * step
            else:
                Ys = Y.copy()
                Ys[j - 1] = Y[j - 1] + sign * step
            return f(Xs, Ys, ths)

        jac[:, :, j] = ((shifted(+1.0) - shifted(-1.0)) / (2.0 * step)).T
    return jac


def test_c02_jacobian_consistency():
    with criterion("C2 jacobian consistency", 5.0):
        rng = np.random.default_rng(202)
        for _ in range(10):
            model = validate_config(random_config(rng, coupling_scale=1e-2))
            mu = 10.0 ** rng.uniform(-6.0, -4.0)
            X, Y, theta = random_region_points(rng, model, mu, 100)
            *_, jac = model.rescaled_step(X, Y, theta, mu, with_jacobian=True)
            fd = _batched_fd(model, mu, X, Y, theta)
            num = np.linalg.norm(fd - jac, axis=(1, 2))
            den = np.maximum(1.0, np.linalg.norm(jac, axis=(1, 2)))
            assert np.max(num / den) < 1e-6


def test_c03_stable_orbit_case():
    with criterion("C3 stable periodic orbit (m=0)", 10.0):
        model = demo_model("demo_m0")
        mu = 1e-6
        fp = find_fixed_point(model, mu)
        assert fp.residual < 1e-12
        assert np.all(np.abs(fp.multipliers) < 1.0)
        rng = np.random.default_rng(303)
        X, Y, theta = random_region_points(rng, model, mu, 100)
        X, Y, theta = advance(model, mu, X, Y, theta, 400)
        dtheta = np.abs(theta - fp.point.theta)
        dtheta = np.minimum(dtheta, TWO_PI - dtheta)
        dist = np.sqrt((X - fp.point.X) ** 2
                       + np.sum((Y - fp.point.Y[:, None]) ** 2, axis=0) + dtheta ** 2)
        assert np.max(dist) < 1e-9


def test_c04_period_scaling():
    with criterion("C4 period scaling", 30.0):
        # closed-form uncoupled family: machine-precision slope
        model = validate_config(uncoupled_config(m=0, gamma=1.0, lam=2.0, beta=3.0, d=1.0))
        fit = fit_period_scaling(mu_sweep(model, geometric_mu_grid(1e-8, 1e-3)))
        assert abs(fit.slope - 1.0) < 1e-9
        assert fit.r_squared > 1.0 - 1e-12
        # coupled families recover 1/gamma within 2 percent
        for gamma in (0.7, 1.0, 1.3):
            coupled = validate_config(coupled_config(
                m=0, gamma=gamma, lam=2.0 * gamma,
                alpha=F(1.0, (0.15,), ()), h=F(0.0, (), (0.1,))))
            fit = fit_period_scaling(mu_sweep(coupled, geometric_mu_grid(1e-8, 1e-3)))
            assert abs(fit.slope - 1.0 / gamma) <= 0.02 / gamma


def test_c05_torus_and_klein_bottle_case():
    with criterion("C5 invariant torus / Klein bottle (|m|=1)", 60.0):
        mu = 1e-4
        rng = np.random.default_rng(505)
        for name, orientation in (("demo_m1", Orientation.PRESERVING),
                                  ("demo_m-1", Orientation.REVERSING)):
            model = demo_model(name)
            curve = graph_transform_curve(model, mu, grid_size=2 ** 17)
            assert curve.residual_sup < 1e-8
            assert curve.orientation is orientation
            X, Y, theta = random_region_points(rng, model, mu, 50)
            X, Y, theta = advance(model, mu, X, Y, theta, 1000)
            on_curve = curve.radial_at(theta)
            dist = np.sqrt((X - on_curve[:, 0]) ** 2
                           + np.sum((Y.T - on_curve[:, 1:]) ** 2, axis=1))
            assert np.max(dist) < 1e-6


def test_c06_cone_certificates():
    with criterion("C6 cone certificates (|m|>=2)", 10.0):
        cert = cone_certify(demo_model("demo_m2"), 1e-5, grid=256)
        assert cert.verdict is True
        assert cert.L_interval is not None and cert.L_interval[0] < cert.L_interval[1]

        theta = np.arange(1024) * (TWO_PI / 1024)
        jac = np.zeros((theta.size, 2, 2))
        jac[:, 0, 0] = 0.3
        jac[:, 0, 1] = -0.1 * np.sin(theta)
        jac[:, 1, 1] = 2.0
        hand = certify_jacobian_field([jac], SKEW_MAP_RECORD)
        sups, _ = _sample_maxima([jac])
        assert abs(sups["sup_pr"] - 0.3) < 1e-9
        assert abs(sups["sup_ptheta"] - 0.1) < 1e-9
        assert abs(sups["sup_qtheta_inv"] - 0.5) < 1e-9
        assert abs(sups["sup_qr"]) < 1e-9
        assert abs(hand.L_interval[0] - 1.0 / 14.0) < 1e-9


def test_c07_lyapunov_signature():
    with criterion("C7 Lyapunov signature", 60.0):
        uncoupled = validate_config(uncoupled_config(m=2, n=4, gamma=1.0, lam=1.7, beta=3.0))
        spectrum = lyapunov_spectrum(uncoupled, 1e-5, 10 ** 4, transient=200)
        assert abs(spectrum.exponents[0] - np.log(2.0)) < 1e-9

        model = demo_model("demo_m2")
        mu = 1e-5
        cert = cone_certify(model, mu, grid=256)
        spectrum = lyapunov_spectrum(model, mu, 10 ** 6, transient=2000)
        assert spectrum.exponents[0] >= np.log(cert.expansion_lower_bound) - 1e-3


def test_c08_threshold_sharpness():
    with criterion("C8 threshold sharpness", 10.0):
        def blue_sky(a):
            return validate_config(uncoupled_config(m=0, h=F(0.0, (), (a,))))

        study = threshold_study(blue_sky, CaseTag.BLUE_SKY, [0.5, 1.5])
        assert abs(study.flip - 1.0) <= 1e-6

        def solenoid(a):
            return validate_config(
                uncoupled_config(m=2, n=4, gamma=1.0, lam=1.7, beta=3.0,
                                 h=F(0.0, (), (a,))))

        study = threshold_study(solenoid, CaseTag.SOLENOID, [0.5, 1.5])
        assert abs(study.flip - 1.0) <= 1e-6


def test_c09_degree_law():
    with criterion("C9 degree law", 5.0):
        cases = (("demo_m0", 0), ("demo_m1", 1), ("demo_m-1", -1), ("demo_m2", 2))
        for name, m in cases:
            model = demo_model(name)
            for mu in geometric_mu_grid(1e-7, 1e-3, per_decade=2):
                assert circle_degree(model, float(mu)) == m


def test_c10_sweep_determinism(tmp_path):
    with criterion("C10 sweep determinism", 30.0):
        cfg = str(CONFIG_DIR / "demo_m0.json")
        outputs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            code = cli_main(["sweep", cfg, "--mu-min", "1e-7", "--mu-max", "1e-3",
                             "--per-decade", "5", "--out", str(out)])
            assert code == 0
            assert (out / "scaling_fit.json").exists()
            outputs.append((out / "sweep.csv").read_bytes())
        assert outputs[0] == outputs[1]
