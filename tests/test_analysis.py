import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

import blueskylab as bsl
from blueskylab import (
    AttractorLabel,
    CaseMismatch,
    FourierSeries as F,
    NotACircleMap,
    NotExpandingInTheta,
    Orientation,
    TorusPoint,
    branch_boundaries,
    certify_jacobian_field,
    circle_degree,
    classify_attractor,
    cone_certify,
    find_fixed_point,
    graph_transform_curve,
    itinerary_semiconjugacy,
    lyapunov_spectrum,
    phase_distance,
    validate_config,
)
from blueskylab.analysis import _prefix_diameters
from blueskylab.model import reduce_angle

from helpers import advance, coupled_config, demo_model, random_region_points, uncoupled_config

TWO_PI = 2.0 * np.pi


# -- fixed points ------------------------------------------------------------


def test_fixed_point_closed_form():
    model = validate_config(uncoupled_config(m=0, gamma=1.0, lam=2.0, beta=3.0, d=1.0))
    for mu, expect in ((np.exp(-10.0), 10.0 - TWO_PI), (np.exp(-12.0), 12.0 - TWO_PI)):
        fp = find_fixed_point(model, mu)
        assert fp.point.theta == pytest.approx(expect, abs=1e-12)
        assert fp.point.X == pytest.approx(1.0, rel=1e-12)
        assert fp.residual == 0.0
        assert np.all(np.abs(fp.multipliers) == 0.0)


def test_fixed_point_against_forward_iteration():
    model = validate_config(coupled_config(m=0, alpha=F(1.0, (0.3,), ()), h=F.zero()))
    mu = 1e-5
    fp = find_fixed_point(model, mu)
    assert fp.residual < 1e-12
    assert np.all(np.abs(fp.multipliers) < 1.0)
    rng = np.random.default_rng(2)
    X, Y, theta = random_region_points(rng, model, mu, 100)
    X, Y, theta = advance(model, mu, X, Y, theta, 200)
    dist = np.sqrt((X - fp.point.X) ** 2
                   + np.sum((Y - fp.point.Y[:, None]) ** 2, axis=0)
                   + np.minimum(np.abs(theta - fp.point.theta),
                                TWO_PI - np.abs(theta - fp.point.theta)) ** 2)
    assert np.max(dist) < 1e-9


def test_phase_distance_wraps():
    a = TorusPoint(0.05, 1.0, [0.0])
    b = TorusPoint(TWO_PI - 0.05, 1.0, [0.0])
    assert phase_distance(a, b) == pytest.approx(0.1, abs=1e-12)


# -- invariant curves ----------------------------------------------------------


def test_curve_constant_case_klein():
    model = validate_config(uncoupled_config(m=-1, gamma=1.0, lam=1.6, beta=2.5))
    curve = graph_transform_curve(model, 1e-4, grid_size=1024)
    assert curve.orientation is Orientation.REVERSING
    assert curve.residual_sup < 1e-12
    assert np.allclose(curve.X, 1.0, atol=1e-12)
    assert np.allclose(curve.Y, 0.0)


def test_curve_uncoupled_matches_preimage_formula():
    model = validate_config(
        uncoupled_config(m=1, gamma=1.0, lam=1.6, beta=2.5,
                         alpha=F(1.0, (0.4,), ()), h=F(0.0, (), (0.1,))))
    mu = 1e-4
    curve = graph_transform_curve(model, mu, grid_size=16384, tol=1e-6)
    assert curve.orientation is Orientation.PRESERVING

    # independent oracle: X(theta) = alpha(preimage(theta))^nu via root finding
    def lift(th):
        X = model.limit_radial(np.asarray(th))
        Y = np.zeros((1,) + np.shape(th))
        return model.rescaled_step(X, Y, th, mu)[2]

    rng = np.random.default_rng(4)
    for target in rng.uniform(0.0, TWO_PI, 12):
        base = float(lift(0.0))
        shifted = target + TWO_PI * np.ceil((base - target) / TWO_PI)
        pre = brentq(lambda x: float(lift(x)) - shifted, 0.0, TWO_PI, xtol=1e-13)
        expect = float(model.limit_radial(pre))
        got = float(curve.radial_at(target)[0])
        assert got == pytest.approx(expect, abs=2e-5)


def test_curve_orbits_attracted():
    model = demo_model("demo_m1")
    mu = 1e-4
    curve = graph_transform_curve(model, mu, grid_size=2 ** 15, tol=1e-7)
    rng = np.random.default_rng(6)
    X, Y, theta = random_region_points(rng, model, mu, 50)
    X, Y, theta = advance(model, mu, X, Y, theta, 300)
    on_curve = curve.radial_at(theta)
    dist = np.sqrt((X - on_curve[:, 0]) ** 2 + np.sum((Y.T - on_curve[:, 1:]) ** 2, axis=1))
    assert np.max(dist) < 1e-6


def test_curve_rejects_non_circle_map():
    model = validate_config(
        uncoupled_config(m=1, gamma=1.0, lam=1.6, beta=2.5, h=F(0.0, (), (1.5,))))
    with pytest.raises(NotACircleMap):
        graph_transform_curve(model, 1e-4, grid_size=1024)


def test_curve_requires_unit_degree():
    model = demo_model("demo_m2")
    with pytest.raises(CaseMismatch):
        graph_transform_curve(model, 1e-5)


def _graph_transform_step_3n(model, mu, theta, radial):
    """One graph-transform step with PCHIP on the full 3N-node periodic
    extension (w - 2 pi, w, w + 2 pi) of the mapped curve."""
    Xb, Yb, lift, _ = model.rescaled_step(radial[:, 0], radial[:, 1:].T, theta, mu)
    sign = 1.0 if lift[1] > lift[0] else -1.0
    w = sign * lift
    values = np.column_stack([Xb, Yb.T])
    interp = PchipInterpolator(np.concatenate([w - TWO_PI, w, w + TWO_PI]),
                               np.vstack([values] * 3), axis=0)
    targets = sign * theta
    return interp(targets + TWO_PI * np.ceil((w[0] - targets) / TWO_PI))


@pytest.mark.parametrize("name", ["demo_m1", "demo_m-1"])
def test_curve_equals_the_3n_extension_bit_for_bit(name):
    # the solve at 2^12 nodes takes two interpolation steps; the padded PCHIP
    # must reproduce the 3N-extension iterate exactly, not just closely
    model = demo_model(name)
    mu = 1e-4
    curve = graph_transform_curve(model, mu, grid_size=2 ** 12, tol=1e-6)
    theta = curve.theta_grid
    radial = np.column_stack([model.limit_radial(theta), np.zeros((len(theta), model.ydim))])
    iterates = []
    for _ in range(4):
        radial = _graph_transform_step_3n(model, mu, theta, radial)
        iterates.append(radial)
    assert not np.array_equal(iterates[0], curve.radial_values)
    assert any(np.array_equal(it, curve.radial_values) for it in iterates)


def _linear_periodic(values, theta):
    """Linear interpolation on a uniform grid over one turn, one angle at a time."""
    n = len(values)
    h = TWO_PI / n
    out = []
    for t in np.ravel(theta):
        t = float(t) % TWO_PI
        i = int(t // h)
        frac = t / h - i
        out.append((1.0 - frac) * values[i % n] + frac * values[(i + 1) % n])
    return np.reshape(out, np.shape(theta) + values.shape[1:])


def test_radial_at_scalar_and_array_angles():
    model = demo_model("demo_m1")
    curve = graph_transform_curve(model, 1e-4, grid_size=2 ** 12, tol=1e-6)
    cases = [2.5, -0.7, TWO_PI, 9.0, np.float64(-13.1), np.array(7.25),
             [0.0, -1e-17, TWO_PI - 1e-15, 3.3],
             np.linspace(-8.0, 15.0, 42).reshape(6, 7)]
    for theta in cases:
        got = curve.radial_at(theta)
        assert got.shape == np.shape(theta) + (1 + model.ydim,)
        np.testing.assert_allclose(got, _linear_periodic(curve.radial_values, theta),
                                   rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("arg, value", [
    ("grid_size", 0),
    ("grid_size", 1),
    ("grid_size", 7),
    ("grid_size", 1024.7),
    ("tol", 0.0),
    ("tol", -1.0),
    ("tol", float("nan")),
])
def test_curve_input_rule(arg, value):
    model = validate_config(uncoupled_config(m=1, gamma=1.0, lam=1.6, beta=2.5))
    with pytest.raises(ValueError):
        graph_transform_curve(model, 1e-4, **{"grid_size": 1024, arg: value})


def test_annulus_diagnostic_holds_for_curve_regimes():
    for name in ("demo_m1", "demo_m-1"):
        diag = bsl.annulus_diagnostic(demo_model(name), 1e-4)
        assert diag.satisfied
        assert diag.gap > 0.9           # tiny couplings: contraction dominates
        assert diag.sup_pr < 1e-3
    with pytest.raises(CaseMismatch):
        bsl.annulus_diagnostic(demo_model("demo_m2"), 1e-5)


# -- circle degree -------------------------------------------------------------


def test_circle_degree_values():
    assert circle_degree(demo_model("demo_m0"), 1e-5) == 0
    assert circle_degree(demo_model("demo_m-1"), 1e-4) == -1
    model3 = validate_config(
        uncoupled_config(m=3, n=4, gamma=1.0, lam=1.8, beta=3.2, h=F(0.0, (), (0.0, 0.2))))
    assert circle_degree(model3, 1e-5) == 3


# -- cone certification ---------------------------------------------------------


def _skew_map_jacobians(n_theta=1024):
    """d(rbar, thetabar)/d(r, theta) for rbar = 0.3 r + 0.1 cos(theta), thetabar = 2 theta."""
    theta = np.arange(n_theta) * (TWO_PI / n_theta)
    jac = np.zeros((n_theta, 2, 2))
    jac[:, 0, 0] = 0.3
    jac[:, 0, 1] = -0.1 * np.sin(theta)
    jac[:, 1, 0] = 0.0
    jac[:, 1, 1] = 2.0
    return jac


def test_skew_map_certificate_hand_values():
    cert = certify_jacobian_field(_skew_map_jacobians())
    assert cert.sup_pr == pytest.approx(0.3, abs=1e-9)
    assert cert.sup_ptheta == pytest.approx(0.1, abs=1e-9)
    assert cert.sup_qtheta_inv == pytest.approx(0.5, abs=1e-9)
    assert cert.sup_qr == pytest.approx(0.0, abs=1e-12)
    assert cert.cross_sup_pr == pytest.approx(0.3, abs=1e-9)
    assert cert.cross_sup_ptheta_bar == pytest.approx(0.05, abs=1e-9)
    assert cert.cross_sup_qtheta_bar == pytest.approx(0.5, abs=1e-9)
    assert cert.cross_sup_qr == pytest.approx(0.0, abs=1e-12)
    low, high = cert.L_interval
    assert low == pytest.approx(1.0 / 14.0, abs=1e-9)
    assert np.isinf(high)
    assert cert.verdict is True
    # forward condition value (1 - 0.3)(1 - 0.5) = 0.35 > 0
    assert (1.0 - cert.sup_pr) * (1.0 - cert.sup_qtheta_inv) == pytest.approx(0.35, abs=1e-9)


def test_cone_certify_uncoupled_degree_two():
    model = validate_config(uncoupled_config(m=2, n=4, gamma=1.0, lam=1.7, beta=3.0))
    cert = cone_certify(model, 1e-5, grid=128)
    assert cert.verdict is True
    assert cert.sup_pr == 0.0
    assert cert.sup_qtheta_inv == pytest.approx(0.5, abs=1e-12)
    low, high = cert.L_interval
    assert low == 0.0
    assert np.isinf(high)


def test_cone_certify_coupled_demo():
    model = demo_model("demo_m2")
    cert = cone_certify(model, 1e-5, grid=256)
    assert cert.verdict is True
    assert cert.L_interval is not None
    low, high = cert.L_interval
    assert 0.0 < low < high
    # the public interval is the certified one, not the sample suprema's
    assert cert.L_interval == cert.certified["L_interval"]
    # certified expansion agrees with the angular condition bound
    assert cert.expansion_lower_bound > 1.0
    assert cert.certified["pr"] < 1e-3


def test_cone_certify_high_dimension():
    """n = 12 (demo_m2 plus 8 small strong-stable components): the samples
    grow linearly in n, where a product of radial levels would hold 3^11
    points per angle."""
    base = demo_model("demo_m2").cfg
    extra = 8
    cfg = bsl.ModelConfig(
        m=base.m, gamma=base.gamma, lam=base.lam, beta=base.beta, d=base.d, n=base.n + extra,
        alpha=base.alpha, h=base.h, coupling_fx=base.coupling_fx, coupling_hx=base.coupling_hx,
        coupling_fy=base.coupling_fy + tuple(F(5e-4, (), (3e-4 * (-1) ** i,)) for i in range(extra)),
        coupling_hy=base.coupling_hy + tuple(F(5e-4, (2e-4,), ()) for _ in range(extra)),
        g0=base.g0 + tuple(F(0.03 * (-1) ** i, (), (0.02,)) for i in range(extra)),
    )
    model = validate_config(cfg)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        cert = cone_certify(model, 1e-5, grid=256)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cert.verdict is True
    assert elapsed < 10.0
    assert peak < 64 * 2 ** 20


def test_cone_certify_not_expanding():
    model = validate_config(
        uncoupled_config(m=2, n=4, gamma=1.0, lam=1.7, beta=3.0, h=F(0.0, (), (1.5,))))
    with pytest.raises(NotExpandingInTheta):
        cone_certify(model, 1e-5, grid=64)


def test_cone_certify_case_mismatch():
    with pytest.raises(CaseMismatch):
        cone_certify(demo_model("demo_m1"), 1e-4)


def test_certify_inconclusive_on_margin_failure():
    # grid values satisfy the inequalities but the caller's certified
    # bounds do not: no verdict either way
    bounds = {"pr": 0.3, "ptheta": 0.1, "qr": 0.0, "cross_pr": 1.2, "cross_ptheta_bar": 0.05,
              "cross_qtheta_bar": 0.5, "cross_qr": 0.0, "qtheta_lower": 2.0}
    with pytest.raises(bsl.Inconclusive):
        certify_jacobian_field(_skew_map_jacobians(), bounds)


def test_itinerary_branch_ambiguity_error(monkeypatch):
    # every angle lies within pi < 3.2 of a boundary, so no redraw helps
    monkeypatch.setattr(bsl.analysis, "BOUNDARY_TOL", 3.2)
    with pytest.raises(bsl.BranchAmbiguity):
        itinerary_semiconjugacy(demo_model("demo_m2"), 1e-5, depth=3, samples=64)


def test_structural_stability_of_certificate():
    base = demo_model("demo_m2").cfg
    for factor in (0.9, 1.1):
        cfg = bsl.ModelConfig(
            m=base.m, gamma=base.gamma, lam=base.lam, beta=base.beta, d=base.d, n=base.n,
            alpha=base.alpha, h=base.h,
            coupling_fx=base.coupling_fx.scaled(factor),
            coupling_hx=base.coupling_hx.scaled(factor),
            coupling_fy=tuple(s.scaled(factor) for s in base.coupling_fy),
            coupling_hy=tuple(s.scaled(factor) for s in base.coupling_hy),
            g0=base.g0,
        )
        cert = cone_certify(validate_config(cfg), 1e-5, grid=128)
        assert cert.verdict is True


def test_homotopy_to_skew_product_keeps_certificate():
    """Scaling the radial argument of p and q toward zero deforms the map to a
    skew product over the expanding circle factor; the cone conditions hold
    along the whole family."""
    model = demo_model("demo_m2")
    mu = 1e-5
    th, X, Y, K = model.trapping_samples(mu, n_theta=128)
    base = model.limit_radial(th)
    delta = 1.0
    for eps in (delta, delta / 2.0, delta / 4.0, 0.0):
        # row blocks evaluated at radially scaled arguments: p at delta*r, q at eps*r
        Xd = base + delta * (X - base)
        *_, jac_p = model.rescaled_step(Xd, delta * Y, th, mu, with_jacobian=True)
        Xe = base + eps * (X - base)
        *_, jac_q = model.rescaled_step(Xe, eps * Y, th, mu, with_jacobian=True)
        n = model.n
        jac = np.empty_like(jac_p)
        jac[:, : n - 1, : n - 1] = delta * jac_p[:, : n - 1, : n - 1]
        jac[:, : n - 1, n - 1] = jac_p[:, : n - 1, n - 1]
        jac[:, n - 1, : n - 1] = eps * jac_q[:, n - 1, : n - 1]
        jac[:, n - 1, n - 1] = jac_q[:, n - 1, n - 1]
        cert = certify_jacobian_field(jac)
        assert cert.verdict is True


# -- lyapunov spectrum -----------------------------------------------------------


def test_lyapunov_uncoupled_doubling():
    model = validate_config(uncoupled_config(m=2, n=4, gamma=1.0, lam=1.7, beta=3.0))
    spectrum = lyapunov_spectrum(model, 1e-5, 10 ** 4, transient=100)
    assert spectrum.exponents[0] == pytest.approx(np.log(2.0), abs=1e-9)
    assert all(e == -np.inf for e in spectrum.exponents[1:])
    assert spectrum.orbit_length == 10 ** 4


def test_lyapunov_matches_multipliers_at_fixed_point():
    model = demo_model("demo_m0")
    mu = 1e-5
    fp = find_fixed_point(model, mu)
    logs = np.sort(np.log(np.abs(fp.multipliers)))[::-1]
    spectrum = lyapunov_spectrum(model, mu, 10 ** 5, transient=2000)
    assert all(e < 0.0 for e in spectrum.exponents)
    for have, want in zip(spectrum.exponents, logs):
        if want >= -49.0:
            assert have == pytest.approx(want, abs=1e-6)


def test_lyapunov_bounded_by_certificate():
    model = demo_model("demo_m2")
    mu = 1e-5
    cert = cone_certify(model, mu, grid=128)
    spectrum = lyapunov_spectrum(model, mu, 10 ** 5, transient=1000)
    assert spectrum.exponents[0] >= np.log(cert.expansion_lower_bound) - 1e-3
    assert spectrum.exponents[1] <= np.log(cert.certified["pr"]) + 1e-3


def test_cone_certificate_serialization_fields():
    cert = cone_certify(demo_model("demo_m2"), 1e-5, grid=64)
    payload = cert.to_dict()
    assert set(payload) == {
        "sup_pr", "sup_ptheta", "sup_qtheta_inv", "sup_qr",
        "cross_sup_pr", "cross_sup_ptheta_bar", "cross_sup_qtheta_bar",
        "cross_sup_qr", "L_interval", "verdict",
    }
    low, high = payload["L_interval"]
    assert low > 0.0 and (high is None or high > low)


def _single_orbit_top_exponent(model, mu, iterations, transient, warmup=200, blocks=20):
    """Reference QR cocycle along one orbit, one return per rescaled_step
    call; the half-width comes from block averaging."""
    p = model.seed_point(0.5)
    X, Y, th = np.array([p.X]), p.Y.reshape(-1, 1), np.array([p.theta])
    Q = np.eye(model.n)
    logs = np.empty((iterations, model.n))
    for step in range(transient + iterations):
        if step < transient - warmup:
            X, Y, lift, _ = model.rescaled_step(X, Y, th, mu)
        else:
            X, Y, lift, _, jac = model.rescaled_step(X, Y, th, mu, with_jacobian=True)
            Q, R = np.linalg.qr(jac[0] @ Q)
            if step >= transient:
                logs[step - transient] = np.log(np.abs(np.diag(R)))
        th = reduce_angle(lift)
    top = int(np.argmax(logs.mean(axis=0)))
    block_means = logs[:, top].reshape(blocks, -1).mean(axis=1)
    half = 1.96 * np.std(block_means, ddof=1) / np.sqrt(blocks)
    return logs[:, top].mean(), half


def test_lyapunov_ensemble_matches_single_orbit():
    model = demo_model("demo_m2")
    mu, iterations, transient = 1e-5, 20_000, 1000
    reference, reference_half = _single_orbit_top_exponent(model, mu, iterations, transient)
    spectrum = lyapunov_spectrum(model, mu, iterations, transient=transient)
    assert spectrum.orbit_length == iterations
    assert 0.0 < spectrum.confidence_halfwidth < 0.05
    assert abs(spectrum.top - reference) <= spectrum.confidence_halfwidth + reference_half


def test_lyapunov_is_deterministic():
    model = demo_model("demo_m2")
    first = lyapunov_spectrum(model, 1e-5, 3000, transient=300)
    second = lyapunov_spectrum(model, 1e-5, 3000, transient=300)
    assert first.exponents == second.exponents
    assert first.confidence_halfwidth == second.confidence_halfwidth


@pytest.mark.parametrize("mu", [float("nan"), float("inf"), 0.0, -1e-5])
def test_lyapunov_rejects_bad_mu(mu):
    with pytest.raises(ValueError, match="mu"):
        lyapunov_spectrum(demo_model("demo_m2"), mu, 100, transient=10)


@pytest.mark.parametrize("lengths", [dict(transient=-1)])
def test_lyapunov_rejects_negative_lengths(lengths):
    with pytest.raises(ValueError, match="non-negative"):
        lyapunov_spectrum(demo_model("demo_m2"), 1e-5, 100, **lengths)


def test_lyapunov_nan_rate_raises(monkeypatch):
    model = demo_model("demo_m2")
    step = model.rescaled_step

    def nan_jacobian(*args, **kwargs):
        out = step(*args, **kwargs)
        if kwargs.get("with_jacobian"):
            out[4][..., 0, 0] = np.nan
        return out

    monkeypatch.setattr(model, "rescaled_step", nan_jacobian)
    with pytest.raises(FloatingPointError):
        lyapunov_spectrum(model, 1e-5, 100, transient=10)


def test_find_fixed_point_saddle_at_degree_two():
    """Newton also locates the (angularly unstable) fixed point of the solenoid map."""
    model = demo_model("demo_m2")
    fp = find_fixed_point(model, 1e-5)
    assert fp.residual < 1e-12
    moduli = np.sort(np.abs(fp.multipliers))
    assert moduli[-1] > 1.0          # expanding angular direction
    assert np.all(moduli[:-1] < 1.0)


def test_lyapunov_torus_rotation_is_neutral():
    model = demo_model("demo_m1")
    spectrum = lyapunov_spectrum(model, 1e-4, 10 ** 6, transient=2000)
    assert abs(spectrum.exponents[0]) < 1e-3


def test_lyapunov_escape_propagates():
    cfg = uncoupled_config(m=0, gamma=1.0, lam=1.5, beta=3.0)
    cfg.coupling_fx = F.constant(-4.0)
    model = validate_config(cfg)
    with pytest.raises(bsl.EscapedTube):
        lyapunov_spectrum(model, 0.9, 100, transient=0)


# -- itineraries -------------------------------------------------------------------


def test_itinerary_doubling_map_binary_expansion():
    model = validate_config(uncoupled_config(m=2, n=4, gamma=1.0, lam=1.7, beta=3.0))
    mu = float(np.exp(-4.0 * np.pi))   # angular drift is an exact multiple of 2*pi
    bounds, _ = branch_boundaries(model, mu)
    assert np.allclose(np.sort(bounds), [0.0, np.pi], atol=1e-9)
    report = itinerary_semiconjugacy(model, mu, depth=10, samples=1024)
    assert report.shift_consistent
    assert report.n_symbols == 2
    assert report.contraction_ratio == pytest.approx(0.5, abs=0.02)

    # the coding is the binary expansion of theta/(2*pi) under doubling
    rng = np.random.default_rng(12)
    theta = rng.uniform(0.0, TWO_PI, 256)
    x = theta / TWO_PI
    X = model.limit_radial(theta)
    Y = np.zeros((2, theta.size))
    for _ in range(8):
        keep = np.minimum(np.abs(theta - np.pi), np.minimum(theta, TWO_PI - theta)) > 1e-6
        digits = (x >= 0.5).astype(int)
        arcs = (theta >= np.pi).astype(int)
        assert np.array_equal(digits[keep], arcs[keep])
        _, _, lift, _ = model.rescaled_step(X, Y, theta, mu)
        theta = reduce_angle(lift)
        x = np.mod(2.0 * x, 1.0)
        assert np.max(np.abs(theta / TWO_PI - x)[keep]) < 1e-6


def test_itinerary_contraction_bounded_by_expansion():
    model = demo_model("demo_m2")
    report = itinerary_semiconjugacy(model, 1e-5, depth=12, samples=8192)
    assert report.shift_consistent
    assert report.contraction_ratio <= 1.0 / report.expansion_lower_bound + 0.02
    diams = dict(report.max_diameter_by_depth)
    assert diams[max(diams)] < 0.05


def test_itinerary_three_symbols():
    model = validate_config(coupled_config(m=3, n=4, gamma=1.0, lam=1.8, beta=3.2,
                                           alpha=F(1.0, (0.15,), ()),
                                           h=F(0.0, (), (0.2,))))
    report = itinerary_semiconjugacy(model, 1e-5, depth=8, samples=10000)
    assert report.n_symbols == 3
    assert report.shift_consistent
    assert report.contraction_ratio <= 1.0 / report.expansion_lower_bound + 0.02


@pytest.mark.parametrize("size", [dict(depth=0), dict(samples=0), dict(depth=2.5),
                                  dict(depth=-1)])
def test_itinerary_count_rule(size):
    with pytest.raises(ValueError, match=next(iter(size))):
        itinerary_semiconjugacy(demo_model("demo_m2"), 1e-5, **size)


def test_itinerary_requires_expanding_degree():
    with pytest.raises(CaseMismatch):
        itinerary_semiconjugacy(demo_model("demo_m0"), 1e-5)


# -- classification ------------------------------------------------------------------


def test_classify_demo_configs():
    assert classify_attractor(demo_model("demo_m0"), 1e-6).label \
        is AttractorLabel.STABLE_PERIODIC_ORBIT
    assert classify_attractor(demo_model("demo_m1"), 1e-4).label \
        is AttractorLabel.INVARIANT_TORUS
    assert classify_attractor(demo_model("demo_m-1"), 1e-4).label \
        is AttractorLabel.KLEIN_BOTTLE
    assert classify_attractor(demo_model("demo_m2"), 1e-5).label \
        is AttractorLabel.SOLENOID


def test_classify_condition_violation_is_indeterminate():
    model = validate_config(uncoupled_config(m=0, h=F(0.0, (), (1.2,))))
    record = classify_attractor(model, 1e-5)
    assert record.label is AttractorLabel.INDETERMINATE
    assert record.condition is not None and not record.condition.verdict
    assert record.reason == "case condition violated"


def test_classify_record_serializes():
    record = classify_attractor(demo_model("demo_m2"), 1e-5)
    payload = record.to_dict()
    assert payload["classification"] == "Solenoid"
    assert payload["certificate"]["verdict"] is True
    assert "condition" in payload


# -- input rules and bit-for-bit pins ----------------------------------------------


@pytest.mark.parametrize("name, mu", [("demo_m0", 1e-6), ("demo_m0", 1e-3), ("demo_m2", 1e-5)])
def test_fixed_point_flight_is_the_step_at_the_point(name, mu):
    model = demo_model(name)
    fp = find_fixed_point(model, mu)
    p = fp.point
    assert fp.flight == float(model.rescaled_step(p.X, p.Y, p.theta, mu)[3])
    assert "flight" not in fp.to_dict()


@pytest.mark.parametrize("name, mu", [("demo_m0", 1e-6), ("demo_m0", 1e-3), ("demo_m2", 1e-5)])
def test_fixed_point_takes_the_converged_step(monkeypatch, name, mu):
    """Two seed steps and one per Newton iteration; the multipliers are
    those of the Jacobian at the returned point."""
    model = demo_model(name)
    step = model.rescaled_step
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return step(*args, **kwargs)

    monkeypatch.setattr(model, "rescaled_step", counted)
    fp = find_fixed_point(model, mu)
    assert len(calls) == fp.newton_iterations + 2
    p = fp.point
    jac = step(p.X, p.Y, p.theta, mu, with_jacobian=True)[4]
    assert np.array_equal(fp.multipliers, np.linalg.eigvals(jac))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_radial_at_rejects_non_finite_angles(bad):
    theta = np.arange(64) * (TWO_PI / 64)
    curve = bsl.InvariantCurve(theta, np.column_stack([1.0 + 0.1 * np.cos(theta), 0.0 * theta]),
                               0.0, Orientation.PRESERVING)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert curve.radial_at(1e300).shape == (2,)     # finite, however large
    with pytest.raises(ValueError, match="finite"):
        curve.radial_at(bad)
    with pytest.raises(ValueError, match="finite"):
        curve.radial_at(np.array([0.5, bad, 1.0]))


@pytest.mark.parametrize("lengths", [dict(iterations=10.7), dict(transient=10.5),
                                     dict(iterations=100.0), dict(iterations=0)])
def test_lyapunov_count_rule(lengths):
    kwargs = dict(iterations=100, transient=10) | lengths
    with pytest.raises(ValueError, match=next(iter(lengths))):
        lyapunov_spectrum(demo_model("demo_m2"), 1e-5, **kwargs)


def _dict_of_tuples_diameters(angles, symbols):
    """Reference grouping: tuple keys, one list per group, sorted angles."""
    out = []
    keys = [()] * angles.size
    for k in range(1, len(symbols) + 1):
        keys = [keys[i] + (int(symbols[k - 1, i]),) for i in range(angles.size)]
        groups = {}
        for i, key in enumerate(keys):
            groups.setdefault(key, []).append(i)
        diams = []
        for idx in groups.values():
            if len(idx) > 1:
                a = np.sort(reduce_angle(angles[idx]))
                gaps = np.diff(np.concatenate([a, [a[0] + TWO_PI]]))
                diams.append(float(TWO_PI - np.max(gaps)))
        if not diams:
            break
        out.append((k, max(diams)))
    return out


@pytest.mark.parametrize("n_sym, depth, samples", [(2, 12, 500), (3, 8, 300), (7, 30, 200)])
def test_prefix_diameters_match_a_tuple_grouping(n_sym, depth, samples):
    rng = np.random.default_rng(n_sym)
    angles = rng.uniform(0.0, TWO_PI, samples)
    angles[:20] = angles[20:40]                  # repeated angles within a group
    symbols = rng.integers(0, n_sym, (depth, samples))
    symbols[:, 1::2] = symbols[:, ::2]           # pairs that share every prefix
    got = _prefix_diameters(angles, symbols, n_sym)
    want = _dict_of_tuples_diameters(angles, symbols)
    assert got == want and len(want) == depth


def test_prefix_diameters_of_an_itinerary():
    model = demo_model("demo_m2")
    report = itinerary_semiconjugacy(model, 1e-5, depth=10, samples=1024)
    assert len(report.max_diameter_by_depth) == 10
    assert all(0.0 < d < TWO_PI for _, d in report.max_diameter_by_depth)
