import dataclasses
import json
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
    branch_boundaries,
    certify_jacobian_field,
    circle_degree,
    classify_attractor,
    cone_certify,
    find_fixed_point,
    find_fixed_points,
    graph_transform_curve,
    itinerary_semiconjugacy,
    lyapunov_spectrum,
    validate_config,
)
from blueskylab.analysis import (
    _bracketed_roots,
    _certified_record,
    _certify_circle_map,
    _ensemble_start,
    _max_operator_norm,
    _prefix_diameters,
    _reorthonormalize,
    _sample_maxima,
    _trapping_jacobians,
    _trig_eval,
    _trig_resample,
)
from blueskylab.fourier import DEFAULT_GRID, GRID_CAP, lipschitz_grid_extrema
from blueskylab.model import angle_diff, reduce_angle

from helpers import (
    CONFIG_DIR,
    SKEW_MAP_RECORD,
    advance,
    coupled_config,
    demo_model,
    random_config,
    random_region_points,
    trig_interpolant,
    uncoupled_config,
)
import pchip_reference
from pchip_reference import (
    _periodic_interp,
    REFERENCE_FILE,
    REFERENCE_NODES,
    REFERENCE_STRIDE,
    pchip_graph_transform,
    periodic_pchip,
)

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
    curve = graph_transform_curve(model, mu, grid_size=1024)
    assert curve.orientation is Orientation.PRESERVING

    # independent oracle: X(theta) = alpha(preimage(theta))^nu via root finding
    def lift(th):
        X = model.limit_radial(np.asarray(th))
        Y = np.zeros((1,) + np.shape(th))
        return model.rescaled_step(X, Y, th, mu)[2]

    rng = np.random.default_rng(4)
    for i in rng.choice(len(curve.theta_grid), 12, replace=False):
        target = curve.theta_grid[i]
        base = float(lift(0.0))
        shifted = target + TWO_PI * np.ceil((base - target) / TWO_PI)
        pre = brentq(lambda x: float(lift(x)) - shifted, 0.0, TWO_PI, xtol=1e-13)
        expect = float(model.limit_radial(pre))
        assert curve.X[i] == pytest.approx(expect, abs=1e-9)


def test_curve_matches_the_dense_piecewise_cubic_solve():
    # reference: every 1,024th node of the 2^17-node piecewise-cubic (PCHIP)
    # graph transform that this spectral solve replaced, at its default tol
    # (pchip_reference.py rebuilds the file); the samples and the polynomial
    # itself at the reference angles both hold
    ref = np.load(REFERENCE_FILE)
    theta = np.arange(0, REFERENCE_NODES, REFERENCE_STRIDE) * (TWO_PI / REFERENCE_NODES)
    for name in ("demo_m1", "demo_m-1"):
        model = demo_model(name)
        assert len(ref["mu"]) == 9 and len(ref[name]) == 9
        for mu, nodes in zip(ref["mu"], ref[name]):
            curve = graph_transform_curve(model, mu, REFERENCE_NODES)
            np.testing.assert_allclose(curve.radial_values[::REFERENCE_STRIDE], nodes,
                                       rtol=0, atol=1e-9)
            np.testing.assert_allclose(curve.radial_at(theta), nodes, rtol=0, atol=1e-9)


@pytest.mark.parametrize("grid_size", [8, 1000, 2 ** 17])
def test_curve_output_grid_samples_the_polynomial(grid_size):
    # demo_m1 at 1e-4 solves on 128 nodes: the 128-angle output is the
    # solve's own nodes, and every other output samples their interpolant
    model = demo_model("demo_m1")
    nodes = graph_transform_curve(model, 1e-4, 128).radial_values.T
    curve = graph_transform_curve(model, 1e-4, grid_size)
    assert curve.theta_grid.shape == (grid_size,)
    assert curve.radial_values.shape == (grid_size, 1 + model.ydim)
    assert curve.radial_values.flags.c_contiguous
    assert curve.theta_grid.tobytes() == (np.arange(grid_size) * (TWO_PI / grid_size)).tobytes()
    every = slice(None, None, 1 + grid_size // 2000)
    np.testing.assert_allclose(curve.radial_values[every],
                               trig_interpolant(nodes, curve.theta_grid[every]).T,
                               rtol=0, atol=1e-13)
    again = graph_transform_curve(model, 1e-4, grid_size)
    assert again.radial_values.tobytes() == curve.radial_values.tobytes()
    assert again.residual_sup == curve.residual_sup


@pytest.mark.parametrize("rows", range(1, 10))
def test_trig_resample_matches_the_row_major_transform(rows):
    # oracle: the row-major zero-padded transform and its transpose, which
    # the column layout replaced; the samples must be the same bits
    n = 128
    coef = np.fft.rfft(np.random.default_rng(rows).standard_normal((rows, n)))
    for size in (n, 2 * n, 1000, 2 ** 17, 100):
        if size < n:
            expect = _trig_eval(coef, np.arange(size) * (TWO_PI / size))
        else:
            padded = np.zeros((rows, size // 2 + 1), dtype=complex)
            padded[:, : n // 2 + 1] = coef
            if size > n:
                padded[:, n // 2] *= 0.5
            expect = np.fft.irfft(padded, size) * (size / n)
        out = _trig_resample(coef, size)
        assert out.shape == (size, rows) and out.flags.c_contiguous
        assert out.tobytes() == np.ascontiguousarray(expect.T).tobytes()


def test_curve_keeps_its_samples_and_coefficients():
    """A 2^17-sample curve retains its samples, the solve's coefficients
    (128 nodes: 2 KB) and no angle grid (1.5x the samples with one), and
    sampling peaks at about the samples alone: ``irfft`` pads the 65-row
    spectrum itself (2x with a padded spectrum built first, 3x with a
    row-major transform and a transposed copy)."""
    model = demo_model("demo_m1")
    graph_transform_curve(model, 1e-4, 2 ** 17)
    tracemalloc.start()
    try:
        curve = graph_transform_curve(model, 1e-4, 2 ** 17)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nbytes = curve.radial_values.nbytes
    assert "theta_grid" not in vars(curve)
    assert curve.coef.shape == (1 + model.ydim, 65)
    assert retained <= 1.05 * nbytes
    assert peak <= 1.25 * nbytes


def test_curve_orbits_attracted():
    model = demo_model("demo_m1")
    mu = 1e-4
    curve = graph_transform_curve(model, mu, grid_size=2 ** 15)
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


def test_curve_rejects_a_fold_between_the_nodes():
    # h = a sin(32 theta + pi/4) with 32 a = 1.02: the lift folds back on 32
    # arcs of width 0.0125 < 2 pi/128, centred where 32 theta = 3 pi/4 (mod
    # 2 pi), a quarter turn of phase from every one of the 128 solve nodes
    c = 1.02 / 32 / np.sqrt(2.0)
    h = F(0.0, (0.0,) * 31 + (c,), (0.0,) * 31 + (c,))
    model = validate_config(uncoupled_config(m=1, gamma=1.0, lam=1.6, beta=2.5, h=h))
    theta = np.arange(128) * (TWO_PI / 128)
    lift = model.rescaled_step(model.limit_radial(theta), np.zeros((1, 128)), theta, 1e-4)[2]
    assert np.all(np.diff(lift) > 0.0)
    with pytest.raises(NotACircleMap):
        graph_transform_curve(model, 1e-4, grid_size=1024)


def _fold_model(slope):
    """The uncoupled m = 1 model with h = a sin(32 theta + pi/4), 32 a =
    ``slope``: 1 + h' dips to 1 - slope between the 128 solve nodes."""
    c = slope / 32 / np.sqrt(2.0)
    h = F(0.0, (0.0,) * 31 + (c,), (0.0,) * 31 + (c,))
    return validate_config(uncoupled_config(m=1, gamma=1.0, lam=1.6, beta=2.5, h=h))


@pytest.mark.parametrize("grid_size", [1, 8, 64, 128, 1024, 2 ** 17])
def test_curve_rejects_the_fold_at_every_output_grid(grid_size):
    # the monotonicity check runs on the polynomial, not on the output
    # samples, so no grid_size lets the fold through
    with pytest.raises(NotACircleMap, match="1 \\+ g' = -"):
        graph_transform_curve(_fold_model(1.02), 1e-4, grid_size)


def test_curve_accepts_a_small_positive_slope_margin():
    # 32 a = 0.98: min(1 + g') is near 0.02 > 0, below the inflation at
    # 4,096 angles (about 0.024), so the check doubles and then decides
    model = _fold_model(0.98)
    curve = graph_transform_curve(model, 1e-4, 8)
    assert curve.orientation is Orientation.PRESERVING
    theta = np.arange(128) * (TWO_PI / 128)
    radial = curve.radial_at(theta).T
    g_coef = np.fft.rfft(model.rescaled_step(radial[0], radial[1:], theta, 1e-4)[2] - theta)
    # oracle: g' on 2^14 angles, one exponential per mode and angle
    k = np.arange(65)
    weights = np.where((k == 0) | (k == 64), 1.0, 2.0) / 128
    fine = np.arange(2 ** 14) * (TWO_PI / 2 ** 14)
    slope_min = 1.0 + ((weights * 1j * k * g_coef) @ np.exp(1j * np.outer(k, fine))).real.min()
    margin = _certify_circle_map(g_coef)
    assert 0.0 < margin < slope_min < 0.05


def test_circle_map_check_refines_past_folds_between_the_grid_angles():
    # g' = -a cos(1024 (theta - c)), a = 1.0001, c half a step of the first
    # 4,096-angle grid: every fold lies between its angles, where 1 + g' is
    # 0.29, so only a Lipschitz bound of at least a k = 1024 sends the check
    # on to 8,192 angles, which hit the folds
    n, k, a = 4096, 1024, 1.0001
    theta = np.arange(n) * (TWO_PI / n)
    g_coef = np.fft.rfft(-(a / k) * np.sin(k * (theta - np.pi / n)))
    with pytest.raises(NotACircleMap, match="on 8192 angles"):
        _certify_circle_map(g_coef)


def test_circle_map_check_reports_an_undecided_cap():
    # 1 + g' = 1 - cos(theta - 1) touches 0 at theta = 1 only, which is no
    # grid angle: every grid value is positive and no inflation clears it
    g_coef = np.fft.rfft(-np.sin(np.arange(8) * (TWO_PI / 8) - 1.0))
    with pytest.raises(NotACircleMap, match="undecided at the cap of 1048576 angles"):
        _certify_circle_map(g_coef)


@pytest.mark.parametrize("a, shift, verdict", [(0.5, 0.0, True), (1.5, 0.0, False),
                                               (1.0, 1.0, None)],
                         ids=["monotone", "folds", "undecided"])
def test_circle_map_verdict_is_a_bool_or_none(monkeypatch, a, shift, verdict):
    """1 + g' = 1 - a cos(theta - shift).  The lift's Lipschitz bound is an
    np.float64 (divided by the np.int64 top mode), yet the loop's verdict
    is a bool or None, which _certify_circle_map tells apart with ``is``."""
    verdicts = []

    def recording(*args):
        result = lipschitz_grid_extrema(*args)
        verdicts.append(result[-1])
        return result

    monkeypatch.setattr(bsl.analysis, "lipschitz_grid_extrema", recording)
    g_coef = np.fft.rfft(-a * np.sin(np.arange(8) * (TWO_PI / 8) - shift))
    if verdict:
        assert _certify_circle_map(g_coef) > 0.0
    else:
        with pytest.raises(NotACircleMap):
            _certify_circle_map(g_coef)
    assert verdicts == [verdict] and type(verdicts[0]) is type(verdict)


def _circle_map_values(monkeypatch, g_coef):
    """The ``values`` function that _certify_circle_map hands to the grid
    loop for ``g_coef``, whatever the verdict."""
    seen = []

    def recording(values, *args):
        seen.append(values)
        return lipschitz_grid_extrema(values, *args)

    monkeypatch.setattr(bsl.analysis, "lipschitz_grid_extrema", recording)
    try:
        _certify_circle_map(g_coef)
    except NotACircleMap:
        pass
    return seen[0]


@pytest.mark.parametrize("n", [8, 128, 4096])
def test_circle_map_block_fft_equals_direct_evaluation(monkeypatch, n):
    """Each whole-circle block theta0 + 2 pi j / DEFAULT_GRID is one shifted
    inverse FFT; it equals the direct sum of _trig_eval at those angles to
    1e-12 of sum_k w_k k |g_k| (at n = 4096 = DEFAULT_GRID the Nyquist mode
    is not split)."""
    rng = np.random.default_rng(n)
    g_coef = np.fft.rfft(rng.standard_normal(n))
    assert g_coef[-1] != 0.0
    values = _circle_map_values(monkeypatch, g_coef)
    k = np.arange(n // 2 + 1)
    slope = (1j * k * g_coef)[None]
    scale = np.sum(np.where(k == n // 2, 1.0, 2.0) * k * np.abs(g_coef)) / n
    for theta0 in (0.0, np.pi / GRID_CAP, np.pi / DEFAULT_GRID, rng.uniform(0.0, TWO_PI)):
        theta = theta0 + np.arange(DEFAULT_GRID) * (TWO_PI / DEFAULT_GRID)
        np.testing.assert_allclose(values(theta), 1.0 + _trig_eval(slope, theta)[0],
                                   rtol=0, atol=1e-12 * scale)


def test_circle_map_check_at_the_node_cap_reaches_the_grid_cap_by_fft(monkeypatch):
    # 1 + g' = 1 - cos(theta - 1) on 4,096 nodes (2,049 modes) is undecided
    # at the 2^20-angle cap; every block is an inverse FFT, so no direct
    # evaluation runs (each angle would cost 2,049 products)
    def direct(*args):
        raise AssertionError("direct trigonometric evaluation")

    monkeypatch.setattr(bsl.analysis, "_trig_eval", direct)
    g_coef = np.fft.rfft(-np.sin(np.arange(4096) * (TWO_PI / 4096) - 1.0))
    with pytest.raises(NotACircleMap, match="undecided at the cap of 1048576 angles"):
        _certify_circle_map(g_coef)


def test_curve_of_a_high_degree_series_starts_on_more_nodes():
    # h has degree 40 > 128 / 4, so the solve starts on 256 nodes
    h = F(0.0, (), (0.0,) * 39 + (0.5 / 40,))
    model = validate_config(uncoupled_config(m=1, gamma=1.0, lam=1.6, beta=2.5, h=h))
    curve = graph_transform_curve(model, 1e-4, 8)
    assert curve.coef.shape == (2, 129)
    assert curve.residual_sup < 1e-8


def test_curve_preimages_that_do_not_settle_raise(monkeypatch):
    monkeypatch.setattr(bsl.analysis, "PREIMAGE_MAX_SWEEPS", 1)
    with pytest.raises(bsl.NoConvergence, match="did not settle in 1 sweeps"):
        graph_transform_curve(demo_model("demo_m1"), 1e-4, 8)


def test_curve_below_the_spectral_floor_raises_at_the_node_cap(monkeypatch):
    model = demo_model("demo_m1")
    monkeypatch.setattr(bsl.analysis, "CURVE_TOL", 1e-16)
    with pytest.raises(bsl.NoConvergence, match="4096 nodes"):
        graph_transform_curve(model, 1e-4, grid_size=1024)
    record, = bsl.classify_attractors(model, [1e-4])
    assert record.label is AttractorLabel.INDETERMINATE
    assert record.reason.startswith("NoConvergence:") and "4096 nodes" in record.reason


def test_curve_solve_evaluates_the_series_once_per_step(monkeypatch):
    """Every step of the solve enters the kernel through ``rescaled_step``,
    which evaluates the series bank itself: one evaluation per step."""
    model = demo_model("demo_m1")
    calls = {"eval": 0, "step": 0}

    def counted(key, function):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(model._bank, "eval", counted("eval", model._bank.eval))
    monkeypatch.setattr(model, "rescaled_step", counted("step", model.rescaled_step))
    graph_transform_curve(model, 1e-4, grid_size=1024)
    assert calls["step"] > 1
    assert calls["eval"] == calls["step"]


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


def _node_major_residual(model, mu, theta, radial):
    """The invariance residual of node rows ``radial`` (shape (N, 1 + k)),
    with the Y components of each node summed along the rows."""
    Xb, Yb, lift, _ = model.rescaled_step(radial[:, 0], radial[:, 1:].T, theta, mu)
    interp = _periodic_interp(radial, lift)
    dy = Yb.T - interp[:, 1:]
    return float(np.max(np.sqrt((Xb - interp[:, 0]) ** 2 + np.sum(dy ** 2, axis=1))))


@pytest.mark.parametrize("name", ["demo_m1", "demo_m-1"] + [
    pytest.param((n, m), id=f"random-n{n}-m{m}")
    for n, m in ((2, 1), (4, -1), (5, 1), (10, 1))])
def test_curve_equals_the_3n_extension_bit_for_bit(name):
    # the PCHIP oracle at 2^12 nodes takes two interpolation steps; its
    # padded PCHIP must reproduce the 3N-extension iterate exactly, not just
    # closely, and its residual the node-major one.  The spectral solve must
    # then agree with the oracle's 2^15-node curve.  The random (n, m)
    # configs take k = 0, 2, 3 and 8 strong-stable rows
    if isinstance(name, str):
        model = demo_model(name)
    else:
        n, m = name
        model = validate_config(random_config(np.random.default_rng(2), m=m, n=n))
    mu = 1e-4
    curve = pchip_graph_transform(model, mu, grid_size=2 ** 12, tol=1e-6)
    theta = curve.theta_grid
    radial = np.column_stack([model.limit_radial(theta), np.zeros((len(theta), model.ydim))])
    iterates = []
    for _ in range(4):
        radial = _graph_transform_step_3n(model, mu, theta, radial)
        iterates.append(radial)
    assert not np.array_equal(iterates[0], curve.radial_values)
    same = [it for it in iterates if np.array_equal(it, curve.radial_values)]
    assert same
    assert _node_major_residual(model, mu, theta, same[0]) == curve.residual_sup

    dense = pchip_graph_transform(model, mu, grid_size=2 ** 15)
    spectral = graph_transform_curve(model, mu, grid_size=2 ** 12)
    assert spectral.orientation is dense.orientation
    np.testing.assert_allclose(spectral.radial_values, dense.radial_values[::8],
                               rtol=0, atol=1e-9)


def _pchip_4_node_pad(w, values, targets):
    """scipy's PCHIP on the curve padded by 4 nodes from the other end of
    the turn on each side, value rows on axis 1."""
    w_ext = np.concatenate([w[-4:] - TWO_PI, w, w[:4] + TWO_PI])
    v_ext = np.concatenate([values[:, -4:], values, values[:, :4]], axis=1)
    return PchipInterpolator(w_ext, v_ext, axis=1)(targets)


def _periodic_nodes(rng, n):
    """Strictly increasing nodes spanning less than one turn, and the node
    targets of a uniform grid shifted onto [w[0], w[0] + 2 pi] for both
    orientations, as the graph transform shifts them."""
    gaps = rng.uniform(0.2, 1.0, n)
    w = rng.uniform(-20.0, 20.0) + np.concatenate([[0.0], np.cumsum(gaps[:-1])]) \
        * (TWO_PI / gaps.sum())
    theta = np.arange(n) * (TWO_PI / n) + rng.uniform(0.0, TWO_PI / n)
    shifted = []
    for sign in (1.0, -1.0):
        targets = sign * theta
        shifted.append(targets + TWO_PI * np.ceil((w[0] - targets) / TWO_PI))
    return w, shifted


@pytest.mark.parametrize("block", [5, 64, pchip_reference.PCHIP_BLOCK])
@pytest.mark.parametrize("rows", [1, 2, 4])
def test_periodic_pchip_equals_scipy_bit_for_bit(monkeypatch, rows, block):
    # the PCHIP oracle's interpolation; small blocks put block edges inside
    # the nodes and the targets
    monkeypatch.setattr(pchip_reference, "PCHIP_BLOCK", block)
    rng = np.random.default_rng(rows)
    for n in (8, 9, 64, 1000):
        w, shifted = _periodic_nodes(rng, n)
        values = rng.normal(size=(rows, n))
        for targets in shifted + [rng.uniform(w[0], w[0] + TWO_PI, 3 * n)]:
            got = periodic_pchip(w, values, targets)
            assert got.shape == (rows, len(targets))
            assert np.array_equal(got, _pchip_4_node_pad(w, values, targets))


def test_periodic_pchip_flat_secants_and_sign_changes():
    # repeated values (a zero secant) and alternating secant signs take the
    # zero-slope branch of the Fritsch & Butland slopes
    rng = np.random.default_rng(3)
    w, shifted = _periodic_nodes(rng, 12)
    values = np.array([[0.0, 1.0, 1.0, 1.0, -2.0, 3.0, -4.0, 0.0, 0.0, 5.0, 5.0, 0.5],
                       [1.0, 1.0, 2.0, 0.0, 0.0, 0.0, 1.0, -1.0, 1.0, 2.0, 3.0, 1.0]])
    secants = np.diff(np.concatenate([values, values[:, :1]], axis=1), axis=1)
    assert np.any(secants == 0.0) and np.any(secants[:, 1:] * secants[:, :-1] < 0.0)
    for targets in shifted + [np.linspace(w[0], w[0] + TWO_PI, 97)]:
        assert np.array_equal(periodic_pchip(w, values, targets),
                              _pchip_4_node_pad(w, values, targets))
    # a -0.0 node between secants -1/3, -1 and -7, where every coefficient
    # of the cubic is negative: scipy sums from +0.0, so the node gives +0.0
    secants = np.array([1.0, 1.0, 1.0, 1.0, -1 / 3, -1.0, -7.0, 1.0, 1.0, 1.0, 1.0])
    values = np.concatenate([[0.0], np.cumsum(secants * np.diff(w))])[None]
    values -= values[0, 5]
    values[0, 5] = -0.0
    got = periodic_pchip(w, values, w[4:7])
    assert got.tobytes() == _pchip_4_node_pad(w, values, w[4:7]).tobytes()
    assert not np.signbit(got[0, 1])


def test_periodic_pchip_target_on_the_closing_node():
    # the target shift can round onto w[0] + 2 pi exactly; there the
    # interval starts at the first node's copy, whose value comes back
    rng = np.random.default_rng(4)
    w, _ = _periodic_nodes(rng, 16)
    values = rng.normal(size=(3, 16))
    targets = np.array([w[0], w[0] + TWO_PI, w[5], w[-1], w[0] + TWO_PI])
    got = periodic_pchip(w, values, targets)
    assert np.array_equal(got, _pchip_4_node_pad(w, values, targets))
    assert np.array_equal(got[:, 1], values[:, 0]) and np.array_equal(got[:, 4], values[:, 0])
    # one ulp below each node of a fine curve, where a located position can
    # round up onto the node
    w, _ = _periodic_nodes(rng, 4096)
    values = rng.normal(size=(2, 4096))
    below = np.nextafter(np.append(w, w[0] + TWO_PI), -np.inf)
    assert np.array_equal(periodic_pchip(w, values, below),
                          _pchip_4_node_pad(w, values, below))


def test_radial_at_scalar_and_array_angles():
    # oracle: the interpolant of the solve's 128 nodes at the angles reduced
    # to one turn, random and very large finite ones included
    model = demo_model("demo_m1")
    nodes = graph_transform_curve(model, 1e-4, 128).radial_values.T
    curve = graph_transform_curve(model, 1e-4, grid_size=2 ** 12)
    cases = [2.5, -0.7, TWO_PI, 9.0, np.float64(-13.1), np.array(7.25),
             [0.0, -1e-17, TWO_PI - 1e-15, 3.3],
             np.linspace(-8.0, 15.0, 42).reshape(6, 7),
             np.random.default_rng(11).uniform(-20.0, 20.0, 500),
             [1e9 + 0.3, -3e15, 1e300, -1.7e308]]
    for theta in cases:
        got = curve.radial_at(theta)
        assert got.shape == np.shape(theta) + (1 + model.ydim,)
        expect = trig_interpolant(nodes, reduce_angle(np.ravel(theta)))
        np.testing.assert_allclose(got, expect.T.reshape(got.shape), rtol=0, atol=1e-13)


@pytest.mark.parametrize("count", [2, 65, 1025, 2049])
def test_trig_eval_equals_direct_exponentials(count):
    # oracle: one np.exp(1j * k * x) per mode and angle, no recurrence
    rng = np.random.default_rng(count)
    coef = rng.standard_normal((3, count)) + 1j * rng.standard_normal((3, count))
    coef /= np.arange(1, count + 1)
    x = rng.uniform(0.0, TWO_PI, 3000)
    k = np.arange(count)
    weights = np.where((k == 0) | (k == count - 1), 1.0, 2.0) / (2 * (count - 1))
    expect = ((coef * weights) @ np.exp(1j * np.outer(k, x))).real
    np.testing.assert_allclose(_trig_eval(coef, x), expect, rtol=0, atol=1e-12)


@pytest.mark.parametrize("arg, value", [
    ("grid_size", 0),
    ("grid_size", 1024.7),
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


@pytest.mark.parametrize("name", ["demo_m1", "demo_m-1", "n2"])
@pytest.mark.parametrize("mu", [1e-6, 1e-4, 1e-2])
def test_certified_annulus_dominates_the_samples(monkeypatch, name, mu):
    """The annulus fields are the certified record's bounds: they dominate
    the maxima of the 256-angle trapping samples, and no Jacobian is
    sampled to compute them.  n = 2 has no strong-stable components, and
    there the radial bound is attained by a sample; the record's outward
    rounding keeps it above that sample."""
    model = validate_config(coupled_config(m=1, n=2)) if name == "n2" else demo_model(name)
    sups, _ = _sample_maxima(_trapping_jacobians(model, mu, 256, model.trapping_radius(mu)))
    step = model.rescaled_step

    def no_jacobian(*args, with_jacobian=False, **kwargs):
        assert not with_jacobian, "annulus_diagnostic sampled a Jacobian"
        return step(*args, **kwargs)

    monkeypatch.setattr(model, "rescaled_step", no_jacobian)
    diag = bsl.annulus_diagnostic(model, mu)
    for key in ("sup_pr", "sup_ptheta", "sup_qtheta_inv", "sup_qr"):
        assert getattr(diag, key) >= sups[key]
    assert diag.lhs <= 1.0 - sups["sup_qtheta_inv"] * sups["sup_pr"]
    assert diag.rhs >= 2.0 * np.sqrt(
        sups["sup_qtheta_inv"] * sups["sup_qr"] * sups["cross_sup_ptheta_bar"])
    assert diag.satisfied


def test_certified_annulus_without_a_circle_map():
    """1 + m*s > 0 holds with a margin of about 2e-4, which the coupling
    corrections at mu = 1e-2 exceed: the certified angular-derivative
    bound is negative."""
    model = validate_config(coupled_config(m=1, alpha=F.constant(1.0), h=F(0.0, (), (0.999,)),
                                           scale=2e-2))
    assert bsl.check_case(bsl.CaseTag.TORUS_OR_KLEIN, model).verdict is True
    with pytest.raises(NotACircleMap, match="lower bound .* <= 0"):
        bsl.annulus_diagnostic(model, 1e-2)


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
    cert = certify_jacobian_field([_skew_map_jacobians()], SKEW_MAP_RECORD)
    assert cert.sup_pr == pytest.approx(0.3, abs=1e-9)
    assert cert.sup_ptheta == pytest.approx(0.1, abs=1e-9)
    assert cert.sup_qtheta_inv == pytest.approx(0.5, abs=1e-9)
    assert cert.sup_qr == pytest.approx(0.0, abs=1e-12)
    assert cert.cross_sup_pr == pytest.approx(0.3, abs=1e-9)
    assert cert.cross_sup_ptheta_bar == pytest.approx(0.05, abs=1e-9)
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
    record = cert.certified
    qt_inv, qr_over_qt = 1.0 / record["qtheta_lower"], record["qr"] / record["qtheta_lower"]
    assert cert.L_interval == (record["cross_ptheta_bar"] / (1.0 - record["cross_pr"]),
                               (1.0 - qt_inv) / qr_over_qt)
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
    bounds = dict(SKEW_MAP_RECORD, cross_pr=1.2)
    with pytest.raises(bsl.Inconclusive) as err:
        certify_jacobian_field([_skew_map_jacobians()], bounds)
    # the message states the certified margin and the sample count, and
    # no grid cap or inflation, which the cone does not have
    message = str(err.value)
    assert "certified margin -1.000e-01" in message and "1024 samples" in message
    assert "nan" not in message and "grid cap" not in message
    assert err.value.grid_size == 1024


def test_certify_field_needs_blocks_of_samples():
    jac = _skew_map_jacobians()
    for field in ([], [jac[:0]], (b for b in ())):
        with pytest.raises(ValueError, match="at least one sample"):
            certify_jacobian_field(field, SKEW_MAP_RECORD)
    # a bare (M, dim, dim) array iterates as (dim, dim) items, not blocks
    for field in (jac, [jac, np.zeros((4, 3, 3))], [jac[0]]):
        with pytest.raises(ValueError, match="blocks of one field"):
            certify_jacobian_field(field, SKEW_MAP_RECORD)


def test_cone_certify_needs_an_angle():
    for grid in (0, -1, 2.0):
        with pytest.raises(ValueError, match="grid must be"):
            cone_certify(demo_model("demo_m2"), 1e-5, grid)


def test_cone_certify_memory_is_bounded_in_the_grid():
    """The samples stream through the certificate one block of 4096 angles
    at a time; holding all 2^16 angles' Jacobians at once peaks near 290 MB."""
    model = demo_model("demo_m2")
    tracemalloc.start()
    try:
        cert = cone_certify(model, 1e-5, 2 ** 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cert.verdict is True
    assert peak < 32 * 2 ** 20


def test_cone_certify_holds_one_block_at_a_time():
    """Two blocks of 4096 angles peak as one: the fold releases each block
    before the generator computes the next (one block more, about 6 MB,
    while it held the previous one)."""
    model = demo_model("demo_m2")
    cone_certify(model, 1e-5, 4096)
    peaks = []
    for grid in (4096, 8192):
        tracemalloc.start()
        try:
            cone_certify(model, 1e-5, grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 2 ** 19


def test_ragged_stream_matches_one_block():
    """8197 angles stream as blocks of 4096, 4096 and 5 angles; the folded
    certificate equals the one from a single block of every sample."""
    model, mu, grid = demo_model("demo_m2"), 1e-5, 8197
    per_angle = 2 * (model.n - 1) + 1
    K = model.trapping_radius(mu)
    blocks = list(_trapping_jacobians(model, mu, grid, K))
    assert [len(b) for b in blocks] == [4096 * per_angle, 4096 * per_angle, 5 * per_angle]
    th, X, Y, _ = model.trapping_samples(mu, np.arange(grid) * (TWO_PI / grid), K=K)
    *_, whole = model.rescaled_step(X, Y, th, mu, with_jacobian=True)
    np.testing.assert_array_equal(np.concatenate(blocks), whole)
    one_block = certify_jacobian_field([whole], _certified_record(model, mu, K))
    streamed = cone_certify(model, mu, grid)
    assert streamed.to_dict() == one_block.to_dict()
    assert streamed.certified == one_block.certified


def test_trapping_radius_computed_once_per_certificate(monkeypatch):
    """Three blocks of samples, one trapping radius for the certificate and
    one for the diagnostic."""
    for model, run in ((demo_model("demo_m2"), lambda m: cone_certify(m, 1e-5, 8197)),
                       (demo_model("demo_m1"), lambda m: bsl.annulus_diagnostic(m, 1e-4))):
        calls = []
        radius = model.trapping_radius

        def counted(mu):
            calls.append(mu)
            return radius(mu)

        monkeypatch.setattr(model, "trapping_radius", counted)
        run(model)
        assert len(calls) == 1


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
    th, X, Y, K = model.trapping_samples(mu, np.arange(128) * (TWO_PI / 128))
    record = _certified_record(model, mu, K)
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
        cert = certify_jacobian_field([jac], record)
        assert cert.verdict is True
        # every member's sample maxima lie within the full map's record
        assert cert.sup_pr <= record["pr"] and cert.sup_ptheta <= record["ptheta"]
        assert cert.sup_qr <= record["qr"]
        assert cert.sup_qtheta_inv <= 1.0 / record["qtheta_lower"]
        assert cert.cross_sup_pr <= record["cross_pr"]
        assert cert.cross_sup_ptheta_bar <= record["cross_ptheta_bar"]
        assert cert.cross_sup_qr <= record["qr"] / record["qtheta_lower"]


# -- lyapunov spectrum -----------------------------------------------------------


def test_lyapunov_uncoupled_doubling():
    """The rank-1 uncoupled Jacobian kills 3 of 4 frame columns on every
    return; their completion raises no warning of any kind."""
    model = validate_config(uncoupled_config(m=2, n=4, gamma=1.0, lam=1.7, beta=3.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spectrum = lyapunov_spectrum(model, 1e-5, 10 ** 4, transient=100)
    assert spectrum.exponents[0] == pytest.approx(np.log(2.0), abs=1e-9)
    assert all(e == -np.inf for e in spectrum.exponents[1:])
    assert spectrum.orbit_length == 10 ** 4


def test_lyapunov_spectrum_to_dict_writes_minus_inf_as_none():
    model = validate_config(uncoupled_config(m=2, n=4, gamma=1.0, lam=1.7, beta=3.0))
    spectrum = lyapunov_spectrum(model, 1e-5, 1000, transient=10)
    payload = spectrum.to_dict()
    assert payload == {"exponents": [spectrum.top, None, None, None], "orbit_length": 1000,
                       "transient_discarded": 10,
                       "confidence_halfwidth": spectrum.confidence_halfwidth}
    json.dumps(payload, allow_nan=False)


def test_lyapunov_single_orbit_has_no_halfwidth():
    spectrum = lyapunov_spectrum(demo_model("demo_m2"), 1e-5, 1, transient=0)
    assert (spectrum.orbit_length, len(spectrum.exponents)) == (1, 4)
    assert np.isnan(spectrum.confidence_halfwidth)


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
        "cross_sup_pr", "cross_sup_ptheta_bar", "cross_sup_qr",
        "L_interval", "verdict", "certified",
    }
    assert set(payload["certified"]) == {
        "pr", "ptheta", "qr", "qtheta_lower",
        "cross_pr", "cross_ptheta_bar",
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


def _lapack_frames(rng, n, B):
    """Random (B, n, n) Jacobians with singular values in [1/e, e] and
    random orthonormal frames, stacked for LAPACK and component-major
    for ``_reorthonormalize``."""
    U, V, Q = (np.linalg.qr(rng.standard_normal((B, n, n)))[0] for _ in range(3))
    jac = U * np.exp(rng.uniform(-1.0, 1.0, (B, 1, n))) @ V
    return jac, Q, np.ascontiguousarray(np.moveaxis(jac, 0, -1)), np.ascontiguousarray(Q.T)


def _gram_error(Q):
    """Largest Frobenius norm of Q^T Q - I over the (column, component, B) frames."""
    gram = np.einsum("kib,lib->bkl", Q, Q) - np.eye(len(Q))
    return float(np.max(np.sqrt(np.einsum("bkl,bkl->b", gram, gram))))


@pytest.mark.parametrize("n", [2, 4, 7])
def test_cgs2_step_matches_lapack_qr(n):
    """log|R_jj| to 5e-14 and Q up to column signs, against a stacked LAPACK
    QR on well-conditioned frames (near-singular ones lose digits to
    cancellation in both algorithms)."""
    jac, frame, J, Q = _lapack_frames(np.random.default_rng(n), n, 256)
    Q_new, log_r = _reorthonormalize(J, Q)
    Q_ref, R = np.linalg.qr(jac @ frame)
    diag = np.diagonal(R, axis1=1, axis2=2)
    np.testing.assert_allclose(log_r, np.log(np.abs(diag)).T, rtol=0.0, atol=5e-14)
    np.testing.assert_allclose(Q_new, (Q_ref * np.sign(diag)[:, None, :]).T, rtol=0.0, atol=1e-13)


def _high_n_m2(n=7):
    """demo_m2 with small couplings on extra strong-stable components."""
    cfg = bsl.load_config(CONFIG_DIR / "demo_m2.json")
    extra = n - cfg.n
    cfg.coupling_fy += tuple(F(6e-4 + 1e-4 * i, (), (5e-4,)) for i in range(extra))
    cfg.coupling_hy += tuple(F(7e-4, (-2e-4 * i,), ()) for i in range(extra))
    cfg.g0 += tuple(F(0.04 * (-1) ** i, (), (0.02,)) for i in range(extra))
    cfg.n = n
    return validate_config(cfg)


@pytest.mark.parametrize("name", ["demo_m2", "high_n_m2"])
def test_cgs2_frames_stay_orthonormal(name):
    """||Q^T Q - I|| < 1e-12 after every return of a 2*10^4-return cocycle
    (16 orbits, 1,250 returns each)."""
    model = demo_model(name) if name == "demo_m2" else _high_n_m2()
    B, mu = 16, 1e-5
    th = reduce_angle(0.5 + 2.0 * np.pi * np.arange(B) / B)
    X, Y, th, _ = model.advance(model.limit_radial(th), np.zeros((model.ydim, B)), th, mu, 100)
    Q = np.broadcast_to(np.eye(model.n)[:, :, None], (model.n, model.n, B))
    worst = 0.0
    for _ in range(20_000 // B):
        X, Y, lift, _, jac = model.rescaled_step(X, Y, th, mu, with_jacobian=True)
        th = reduce_angle(lift)
        Q, log_r = _reorthonormalize(np.moveaxis(jac, (-2, -1), (0, 1)), Q)
        worst = max(worst, _gram_error(Q))
    assert np.all(np.isfinite(log_r))
    assert worst < 1e-12


def _stacked_lapack_rates(model, mu, iterations, transient):
    """``lyapunov_spectrum``'s ensemble cocycle with a stacked LAPACK QR
    per return: the growth rates, sorted descending.  Each orbit discards
    ``ceil(transient / B)`` returns while its frame aligns."""
    B = min(256, iterations)
    warmup = -(-transient // B)
    steps = -(-iterations // B)
    last = iterations - B * (steps - 1)
    X, Y, th = _ensemble_start(model, B)
    Q, acc = np.eye(model.n), np.zeros((B, model.n))
    for step in range(warmup + steps):
        X, Y, lift, _, jac = model.rescaled_step(X, Y, th, mu, with_jacobian=True)
        th = reduce_angle(lift)
        Q, R = np.linalg.qr(jac @ Q)
        if step >= warmup:
            counted = last if step == warmup + steps - 1 else B
            acc[:counted] += np.log(np.abs(np.diagonal(R, axis1=1, axis2=2)[:counted]))
    return np.sort(acc.sum(axis=0) / iterations)[::-1]


def test_lyapunov_top_matches_stacked_lapack_cocycle():
    model = demo_model("demo_m2")
    spectrum = lyapunov_spectrum(model, 1e-5, 10 ** 5, transient=2000)
    reference = _stacked_lapack_rates(model, 1e-5, 10 ** 5, 2000)
    assert abs(spectrum.top - reference[0]) < 1e-10


@pytest.mark.parametrize("iterations, transient", [
    (10 ** 5, 2000),   # 8 returns per orbit
    (1000, 0),         # no transient and no warm-up
    (1000, 100),       # transient < B: one return per orbit
])
def test_lyapunov_transient_counts_over_the_ensemble(monkeypatch, iterations, transient):
    """Each of the B = 256 orbits discards ceil(transient / B) returns, so
    the kernel steps B * (ceil(iterations / B) + ceil(transient / B))
    points, and the spectrum reports the ensemble totals asked for."""
    model = demo_model("demo_m2")
    step, stepped = model._step, []

    def counting_step(X, Y, theta, mu, with_jacobian=False):
        stepped.append(np.size(theta))
        return step(X, Y, theta, mu, with_jacobian)

    monkeypatch.setattr(model, "_step", counting_step)
    spectrum = lyapunov_spectrum(model, 1e-5, iterations, transient=transient)
    assert sum(stepped) == 256 * (-(-iterations // 256) + -(-transient // 256))
    assert spectrum.transient_discarded == transient
    assert spectrum.orbit_length == iterations


def test_lyapunov_never_calls_lapack_qr(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.qr called")

    monkeypatch.setattr(np.linalg, "qr", refuse)
    for model in (demo_model("demo_m2"),
                  validate_config(uncoupled_config(m=2, n=4, gamma=1.0, lam=1.7, beta=3.0))):
        assert lyapunov_spectrum(model, 1e-5, 1000, transient=10).top > 0.0


@pytest.mark.parametrize("orbits", ["all", "some"])
@pytest.mark.parametrize("column", [0, 2, 3])
def test_cgs2_completes_an_exactly_zero_column(orbits, column):
    """A column of J Q that is exactly zero gets log|R_jj| = -inf and is
    replaced by a unit vector orthogonal to the earlier columns; a NaN
    frame stays NaN."""
    n, B = 4, 64
    J = _lapack_frames(np.random.default_rng(column), n, B)[2]
    Q = np.broadcast_to(np.eye(n)[:, :, None], (n, n, B))
    dead = np.ones(B, dtype=bool) if orbits == "all" else np.arange(B) % 3 == 0
    J[:, column, dead] = 0.0
    Q_new, log_r = _reorthonormalize(J, Q)
    assert np.all(log_r[column, dead] == -np.inf)
    assert np.all(np.isfinite(np.delete(log_r, column, axis=0)))
    assert np.all(np.isfinite(log_r[column, ~dead]))
    assert _gram_error(Q_new) < 1e-12

    J[:, :, 0] = np.nan
    Q_nan, log_nan = _reorthonormalize(J, Q)
    assert np.all(np.isnan(Q_nan[:, :, 0])) and np.all(np.isnan(log_nan[:, 0]))
    np.testing.assert_array_equal(Q_nan[:, :, 1:], Q_new[:, :, 1:])


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


def _brentq_branch_boundaries(model, mu):
    """Reference for ``branch_boundaries``: one scalar ``brentq`` solve per
    root, on the brackets of the same 4,097-point sampled lift."""
    sign = 1.0 if model.m > 0 else -1.0

    def lift(x):
        x = np.asarray(x, dtype=float)
        Y = np.zeros((model.ydim,) + x.shape)
        return model.rescaled_step(model.limit_radial(x), Y, x, mu)[2]

    dense = np.linspace(0.0, TWO_PI, 4096 + 1)

    def solve(f, values, target):
        i = int(np.searchsorted(values, target))
        return brentq(lambda x: f(x) - target, dense[max(i - 1, 0)], dense[min(i, 4096)],
                      xtol=1e-14)

    lift_dense = lift(dense)
    g_dense = sign * (lift_dense - dense)
    g_target = TWO_PI * (np.floor(g_dense[0] / TWO_PI) + 1.0)
    fixed = float(reduce_angle(solve(lambda x: sign * (float(lift(x)) - x), g_dense, g_target)))
    w_dense = sign * lift_dense
    k0 = np.ceil((w_dense[0] - sign * fixed) / TWO_PI)
    targets = sign * fixed + TWO_PI * (k0 + np.arange(abs(model.m)))
    roots = [solve(lambda x: sign * float(lift(x)), w_dense, t) for t in targets]
    return np.sort(reduce_angle(np.array(roots))), float(targets[0])


@pytest.mark.parametrize("m", [2, -2, 3])
@pytest.mark.parametrize("mu", [1e-7, 1e-5, 1e-3])
def test_branch_boundaries_match_brentq(m, mu):
    cfg = bsl.load_config(CONFIG_DIR / "demo_m2.json")
    cfg.m = m
    model = validate_config(cfg)
    bounds, t0 = branch_boundaries(model, mu)
    ref_bounds, ref_t0 = _brentq_branch_boundaries(model, mu)
    assert bounds.shape == (abs(m),)
    assert np.max(np.abs(bounds - ref_bounds)) <= 1e-13
    assert abs(t0 - ref_t0) <= 1e-13


def test_bracketed_roots_on_ends_and_inside():
    nodes = np.linspace(0.0, 2.0, 5)
    # exact sample values: each root on a bracket end comes back as that end,
    # and one on a section point as that point
    roots = _bracketed_roots(lambda x: 2.0 * x, [1.0, 0.0, 4.0, 2.078125], nodes, 2.0 * nodes)
    assert roots.tolist() == [0.5, 0.0, 2.0, 1.0390625]
    calls = []

    def cube(x):
        calls.append(len(x))
        return x ** 3

    root, = _bracketed_roots(cube, [2.0], nodes, nodes ** 3)
    assert abs(root - 2.0 ** (1.0 / 3.0)) <= 1e-14
    # 63 interior points per call; 0.5 / 64^8 < 1e-14 <= 0.5 / 64^7
    assert calls == [bsl.analysis.ROOT_SECTIONS - 1] * 8


def test_bracketed_roots_without_sign_change_is_named():
    nodes = np.linspace(0.0, 2.0, 5)
    with pytest.raises(NotACircleMap) as err:
        _bracketed_roots(lambda x: x, [3.0], nodes, nodes)
    assert not isinstance(err.value, ValueError)


def test_bracketed_roots_step_cap():
    """The step count is fixed before the first step: a g that never
    settles its sign returns inside its bracket after the same 8 calls."""
    nodes = np.linspace(0.0, 2.0, 5)
    calls = []

    def undefined(x):
        calls.append(len(x))
        return np.full_like(x, np.nan)

    root, = _bracketed_roots(undefined, [1.3], nodes, nodes)
    assert len(calls) == 8 and 1.0 <= root <= 1.5


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


def test_itinerary_report_to_dict():
    report = itinerary_semiconjugacy(demo_model("demo_m2"), 1e-5, depth=4, samples=256)
    payload = report.to_dict()
    fields = {f.name for f in dataclasses.fields(report)} - {"boundaries"}
    assert set(payload) == fields
    assert payload["max_diameter_by_depth"] == [[k, d] for k, d in report.max_diameter_by_depth]
    assert [k for k, _ in payload["max_diameter_by_depth"]] == [1, 2, 3, 4]
    for name in fields - {"max_diameter_by_depth"}:
        assert payload[name] == getattr(report, name)
    json.dumps(payload, allow_nan=False)


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


def test_classify_undecided_condition_is_indeterminate():
    # sup|s| = sup|a cos| < 1 at a = 1 exactly: the grid loop ends at its cap
    model = validate_config(uncoupled_config(m=0, h=F(0.0, (), (1.0,))))
    record = classify_attractor(model, 1e-5)
    assert record.label is AttractorLabel.INDETERMINATE
    assert record.condition is None and record.reason.startswith("Inconclusive: ")


def test_classify_unstable_fixed_point_is_indeterminate():
    # a strong x-dependence of the return angle (H_x = 100 cos theta) gives
    # the fixed point a multiplier above 1 at mu = 0.5; the mu-free
    # condition still holds
    cfg = dataclasses.replace(demo_model("demo_m0").cfg, coupling_hx=F(0.0, (100.0,), ()))
    record = classify_attractor(validate_config(cfg), 0.5)
    assert record.label is AttractorLabel.INDETERMINATE
    assert record.reason == "fixed point not stable"
    assert record.condition.verdict and record.fixed_point is not None
    assert not record.fixed_point.stable and np.max(np.abs(record.fixed_point.multipliers)) > 1.0


def test_classify_curve_escape_is_returned_or_raised():
    # z0 = mu alpha + x F_x < 0 on the limit curve: the graph transform escapes
    cfg = dataclasses.replace(demo_model("demo_m1").cfg, coupling_fx=F(-1e3, (), ()))
    model = validate_config(cfg)
    assert bsl.check_case(bsl.CaseTag.TORUS_OR_KLEIN, model).verdict
    row, = bsl.classify_attractors(model, [1e-4])
    assert isinstance(row, bsl.EscapedTube)
    with pytest.raises(bsl.EscapedTube, match="mu=0.0001"):
        classify_attractor(model, 1e-4)


def test_classify_violated_cone_is_indeterminate():
    # a large constant H_x makes |dq/dr| too large for an admissible cone
    cfg = dataclasses.replace(demo_model("demo_m2").cfg, coupling_hx=F(1e4, (), ()))
    model = validate_config(cfg)
    assert classify_attractor(model, 1e-3).label is AttractorLabel.SOLENOID
    record = classify_attractor(model, 1e-2)
    assert record.label is AttractorLabel.INDETERMINATE
    assert record.reason == "cone conditions violated"
    assert record.certificate is not None and not record.certificate.verdict


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
    """Two seed steps and one per Newton iteration, counted at the map's
    kernel (``_step``, which ``rescaled_step`` wraps); the multipliers are
    those of the Jacobian at the returned point."""
    model = demo_model(name)
    step = model.rescaled_step
    kernel = model._step
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(model, "_step", counted)
    fp = find_fixed_point(model, mu)
    assert len(calls) == fp.newton_iterations + 2
    p = fp.point
    jac = step(p.X, p.Y, p.theta, mu, with_jacobian=True)[4]
    assert np.array_equal(fp.multipliers, np.linalg.eigvals(jac))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_radial_at_rejects_non_finite_angles(bad):
    theta = np.arange(64) * (TWO_PI / 64)
    radial = np.stack([1.0 + 0.1 * np.cos(theta), 0.0 * theta])
    curve = bsl.InvariantCurve(np.ascontiguousarray(radial.T), 0.0, Orientation.PRESERVING,
                               np.fft.rfft(radial))
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


# -- batched fixed points and sample suprema -----------------------------------


def _batch_models():
    rng = np.random.default_rng(11)
    return [pytest.param(demo_model("demo_m0"), id="demo_m0"),
            pytest.param(validate_config(uncoupled_config(m=0, gamma=1.0, lam=2.0, beta=3.0)),
                         id="uncoupled"),
            *(pytest.param(validate_config(random_config(rng, m=0, n=n)), id=f"random_n{n}")
              for n in (3, 4, 5))]


@pytest.mark.parametrize("model", _batch_models())
def test_find_fixed_points_match_the_one_row_solve(model):
    mus = bsl.geometric_mu_grid(1e-8, 1e-2, per_decade=3)
    for mu, got in zip(mus, find_fixed_points(model, mus)):
        try:
            want = find_fixed_point(model, float(mu))
        except bsl.DomainError as exc:
            assert type(got) is type(exc)
            continue
        assert isinstance(got, bsl.FixedPointResult)
        assert abs(angle_diff(got.point.theta, want.point.theta)) < 1e-12
        np.testing.assert_allclose(got.point.X, want.point.X, rtol=1e-12)
        np.testing.assert_allclose(got.point.Y, want.point.Y, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(got.flight, want.flight, rtol=1e-12)
        np.testing.assert_allclose(np.sort(np.abs(got.multipliers)),
                                   np.sort(np.abs(want.multipliers)), rtol=1e-9, atol=1e-15)
        assert got.residual < 1e-13


def test_singular_newton_row_ends_alone(monkeypatch):
    """A row whose Newton matrix is singular ends as NoConvergence; the
    other rows converge as they do alone."""
    model = demo_model("demo_m0")
    kernel = model._step

    def identity_jacobian_above(*args, **kwargs):
        out, escaped = kernel(*args, **kwargs)
        if kwargs.get("with_jacobian"):
            out[4][np.asarray(args[3]) > 1e-5] = np.eye(model.n)    # jac - I = 0
        return out, escaped

    mus = np.array([1e-6, 1e-4, 1e-7])
    alone = [find_fixed_point(model, float(mu)) for mu in mus[[0, 2]]]
    monkeypatch.setattr(model, "_step", identity_jacobian_above)
    first, singular, last = find_fixed_points(model, mus)
    assert isinstance(singular, bsl.NoConvergence) and "singular" in str(singular)
    for got, want in zip((first, last), alone):
        np.testing.assert_allclose(got.point.X, want.point.X, rtol=1e-12)
        assert got.newton_iterations == want.newton_iterations


def _reference_max_norm(blocks):
    return float(np.max(np.linalg.svd(blocks, compute_uv=False)[:, 0]))


@pytest.mark.parametrize("name, grid", [("demo_m2", 256), ("demo_m2", 16384), ("n7", 256)])
def test_max_operator_norm_is_the_stacked_svd_maximum(name, grid):
    model = validate_config(coupled_config(m=2, n=7)) if name == "n7" else demo_model(name)
    th, X, Y, K = model.trapping_samples(1e-5, np.arange(grid) * (TWO_PI / grid))
    *_, jac = model.rescaled_step(X, Y, th, 1e-5, with_jacobian=True)
    r = model.n - 1
    p_r, p_t, q_r, q_t = jac[:, :r, :r], jac[:, :r, r], jac[:, r, :r], jac[:, r, r]
    cross_pr = p_r - np.einsum("mi,mj->mij", p_t, q_r * (1.0 / q_t)[:, None])
    want_pr, want_cross = _reference_max_norm(p_r), _reference_max_norm(cross_pr)
    assert _max_operator_norm(p_r) == want_pr and _max_operator_norm(cross_pr) == want_cross
    cert = certify_jacobian_field([jac], _certified_record(model, 1e-5, K))
    assert cert.sup_pr == want_pr and cert.cross_sup_pr == want_cross


def test_max_operator_norm_of_identical_and_single_blocks():
    block = np.array([[0.3, -0.2, 0.1], [0.05, 0.4, -0.3], [0.2, 0.1, 0.25]])
    same = np.repeat(block[None], 64, axis=0)
    assert _max_operator_norm(same) == _reference_max_norm(same)
    assert _max_operator_norm(block[None]) == _reference_max_norm(block[None])
    assert _max_operator_norm(np.zeros((5, 0, 0))) == 0.0
