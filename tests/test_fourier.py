import numpy as np
import pytest

import blueskylab as bsl
from blueskylab import FourierSeries
from blueskylab.fourier import DEFAULT_GRID, GRID_CAP, TWO_PI, lipschitz_grid_extrema

from helpers import CONFIG_DIR, _random_series


def test_constant_and_zero():
    z = FourierSeries.zero()
    c = FourierSeries.constant(2.5)
    assert z.degree == 0
    assert z.eval(1.234) == 0.0
    assert c.eval(0.0) == 2.5
    assert c.deriv().eval(0.7) == 0.0
    assert c.sup_bound() == 2.5


def test_eval_matches_direct_sum():
    f = FourierSeries(0.5, (1.0, -0.25), (0.75,))
    th = 1.1
    expected = 0.5 + 1.0 * np.cos(th) - 0.25 * np.cos(2 * th) + 0.75 * np.sin(th)
    assert f.eval(th) == pytest.approx(expected, abs=1e-15)
    arr = f.eval(np.array([0.0, th]))
    assert arr.shape == (2,)
    assert arr[1] == pytest.approx(expected, abs=1e-15)
    # degree 4, cos and sin terms of unequal lengths
    g = FourierSeries(-0.2, (0.3, 0.0, -0.1, 0.05), (0.4, -0.25, 0.125))
    expected = (-0.2 + 0.3 * np.cos(th) - 0.1 * np.cos(3 * th) + 0.05 * np.cos(4 * th)
                + 0.4 * np.sin(th) - 0.25 * np.sin(2 * th) + 0.125 * np.sin(3 * th))
    assert g.degree == 4
    assert type(g.eval(th)) is float
    assert g.eval(th) == pytest.approx(expected, abs=1e-15)
    assert g.eval(np.array([[th]])).shape == (1, 1)
    assert g.eval(np.array([[th]]))[0, 0] == pytest.approx(expected, abs=1e-15)


def test_periodicity_to_machine_precision():
    rng = np.random.default_rng(7)
    for _ in range(20):
        f = _random_series(rng, 8, 1.0)
        th = rng.uniform(-10.0, 10.0, 64)
        diff = np.abs(f.eval(th) - f.eval(th + 2.0 * np.pi))
        assert np.max(diff) < 1e-12 * max(1.0, f.sup_bound())


def test_derivative_matches_central_differences():
    rng = np.random.default_rng(11)
    step = 1e-6
    for deg in (1, 4, 16):
        weights = 1.0 / (1.0 + np.arange(deg))
        f = FourierSeries(rng.uniform(-1, 1),
                          tuple(weights * rng.uniform(-1, 1, deg)),
                          tuple(weights * rng.uniform(-1, 1, deg)))
        d = f.deriv()
        th = rng.uniform(0.0, 2.0 * np.pi, 256)
        fd = (f.eval(th + step) - f.eval(th - step)) / (2.0 * step)
        scale = np.max(np.abs(d.eval(th))) + 1e-30
        assert np.max(np.abs(fd - d.eval(th))) / scale < 1e-8


def test_second_derivative_series():
    f = FourierSeries(0.0, (0.3,), (0.2,))
    d2 = f.deriv().deriv()
    th = np.linspace(0, 2 * np.pi, 17)
    assert np.allclose(d2.eval(th), -0.3 * np.cos(th) - 0.2 * np.sin(th), atol=1e-14)


def test_sup_bounds_dominate_dense_max():
    rng = np.random.default_rng(3)
    th = np.linspace(0.0, 2.0 * np.pi, 20001)
    for _ in range(20):
        f = _random_series(rng, 6, 1.0)
        assert f.sup_bound() >= np.max(np.abs(f.eval(th))) - 1e-12
        assert f.deriv_sup_bound() >= np.max(np.abs(f.deriv().eval(th))) - 1e-12


def test_dict_roundtrip_and_shorthand():
    f = FourierSeries(1.0, (0.25,), (0.5, -0.125))
    assert FourierSeries.from_dict(f.to_dict()) == f
    assert FourierSeries.from_dict(2.0) == FourierSeries.constant(2.0)
    with pytest.raises(ValueError):
        FourierSeries.from_dict({"constant": 0.0, "cosine": [1.0]})
    for malformed in ([1.0], None, {"sin": 0.3}, {"cos": [[1.0]]}, {"constant": [1.0]}):
        with pytest.raises(ValueError):
            FourierSeries.from_dict(malformed)


def test_scaled():
    f = FourierSeries(1.0, (0.5,), (0.25,))
    g = f.scaled(2.0)
    th = np.linspace(0, 2 * np.pi, 9)
    assert np.allclose(g.eval(th), 2.0 * f.eval(th), rtol=0, atol=0)


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_series_bank_profile_rows_match_full_evaluation(path):
    bank = bsl.load_model(path)._bank
    theta = np.linspace(-4.0, 11.0, 4099)
    full = bank.eval(theta, derivatives=True)
    assert full.shape == (2 * bank.n_base,) + theta.shape
    assert np.array_equal(bank.eval(theta), full[: bank.n_base])
    assert np.array_equal(bank.eval(0.3), bank.eval(np.array([0.3]))[:, 0])


def test_grid_extrema_in_blocks_equal_the_full_grid():
    """Each doubling evaluates only the new midpoints, DEFAULT_GRID angles
    at a time: one block at the first two grids, two at the third.  Block
    b of the third grid holds the points i with i % 4 = 2b + 1, so the
    points i % 4 = 0, 2, 1, 3 come in blocks 0 to 3.  The extrema are
    those of the whole grid, bit for bit."""
    f = FourierSeries(0.1, (0.9, 0.0, -0.1), (0.3, 0.05, 0.02))
    blocks = []

    def values(theta):
        blocks.append(theta)
        return f.eval(theta)

    # decide at the third grid, 4 * DEFAULT_GRID angles
    vmin, vmax, grid, inflation, verdict = lipschitz_grid_extrema(
        values, f.deriv_sup_bound(), lambda vmin, vmax: np.inf if len(blocks) >= 4 else 0.0)
    assert (grid, verdict) == (4 * DEFAULT_GRID, True)
    angles = np.arange(grid) * (TWO_PI / grid)
    for block, residue in zip(blocks, (0, 2, 1, 3), strict=True):
        assert np.array_equal(block, angles[residue::4])
    full = f.eval(angles)
    # the extrema lie in different blocks, so the fold spans blocks
    assert np.argmin(full) % 4 != np.argmax(full) % 4
    assert (vmin, vmax) == (float(np.min(full)), float(np.max(full)))
    assert inflation == f.deriv_sup_bound() * np.pi / grid


def test_grid_extrema_evaluate_every_angle_once():
    """Up to the cap the angles seen are exactly the final grid's, i * 2pi/grid
    bit for bit, none of them twice."""
    seen = []

    def values(theta):
        seen.append(theta)
        return np.zeros_like(theta)

    *_, grid, _, verdict = lipschitz_grid_extrema(values, 1.0, lambda *_: 0.0)
    assert (grid, verdict) == (GRID_CAP, None)
    # each block is a uniform grid of the whole circle: theta[0] in the
    # first step, then DEFAULT_GRID angles 2pi/DEFAULT_GRID apart
    step = TWO_PI / DEFAULT_GRID
    for theta in seen:
        assert theta.size == DEFAULT_GRID and 0.0 <= theta[0] < step
        np.testing.assert_allclose(np.diff(theta), step, rtol=1e-12, atol=0)
    angles = np.concatenate(seen)
    assert angles.size == GRID_CAP
    assert np.array_equal(np.sort(angles), np.arange(grid) * (TWO_PI / grid))


def test_grid_extrema_leave_a_zero_margin_undecided():
    """1 - cos(theta) is 0.0 exactly at the grid angle 0 and positive
    elsewhere: a zero margin is neither < 0 nor above any inflation, so the
    grid runs to the cap and the verdict is None, not False."""
    f = FourierSeries(1.0, (-1.0,))
    vmin, _, grid, _, verdict = lipschitz_grid_extrema(f.eval, f.deriv_sup_bound())
    assert (vmin, grid, verdict) == (0.0, GRID_CAP, None)


def test_grid_extrema_equal_a_direct_evaluation_of_the_grid():
    """Random series stopped at a random grid: the nested extrema are those
    of one evaluation of that whole grid."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeffs = st.lists(st.floats(-2.0, 2.0), max_size=6)

    @hypothesis.settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @hypothesis.given(st.floats(-2.0, 2.0), coeffs, coeffs, st.integers(0, 3))
    def check(c0, cos, sin, levels):
        f = FourierSeries(c0, tuple(cos), tuple(sin))
        lip = f.deriv_sup_bound()
        checked = []

        def margin(vmin, vmax):
            checked.append(vmin)
            return np.inf if len(checked) > levels else 0.0

        vmin, vmax, grid, inflation, verdict = lipschitz_grid_extrema(f.eval, lip, margin)
        assert (grid, verdict) == (DEFAULT_GRID * 2 ** levels, True)
        full = f.eval(np.arange(grid) * (TWO_PI / grid))
        assert (vmin, vmax) == (float(np.min(full)), float(np.max(full)))
        assert inflation == lip * np.pi / grid

    check()
