import json
import warnings

import numpy as np
import pytest

import blueskylab as bsl
from blueskylab import (
    EscapedTube,
    FourierSeries as F,
    InvalidModel,
    TorusPoint,
    parse_config,
    validate_config,
)
from blueskylab.model import reduce_angle, require_count

from helpers import (
    CONFIG_DIR,
    advance,
    check_trapping,
    coupled_config,
    demo_model,
    fd_jacobian,
    random_config,
    random_region_points,
    uncoupled_config,
)

TWO_PI = 2.0 * np.pi


# -- validation -------------------------------------------------------------


def test_validate_slack_config():
    model = validate_config(uncoupled_config(m=0, gamma=1.0, lam=2.0, beta=3.0, n=3))
    assert model.nu == pytest.approx(2.0)


def test_nu_not_greater_than_one():
    with pytest.raises(InvalidModel) as err:
        validate_config(uncoupled_config(gamma=1.0, lam=0.5, beta=3.0))
    assert "NuNotGreaterThanOne" in err.value.violations


def test_dimension_forbids_m():
    for n, m in ((2, 2), (2, 0), (3, 2), (3, -2)):
        with pytest.raises(InvalidModel) as err:
            validate_config(uncoupled_config(m=m, n=n))
        assert "DimensionForbidsM" in err.value.violations
    # allowed combinations pass
    validate_config(uncoupled_config(m=1, n=2))
    validate_config(uncoupled_config(m=-1, n=3))
    validate_config(uncoupled_config(m=5, n=4))


def test_alpha_not_positive():
    with pytest.raises(InvalidModel) as err:
        validate_config(uncoupled_config(alpha=F(1.0, (1.5,), ())))
    assert "AlphaNotPositive" in err.value.violations


def test_alpha_zero_on_a_grid_angle_is_not_positive():
    """alpha = 1 + cos(theta) is 0.0 exactly at the grid angle pi: the
    certified loop leaves a zero undecided, which is still a violation."""
    alpha = F(1.0, (1.0,), ())
    assert alpha.eval(np.pi) == 0.0
    with pytest.raises(InvalidModel) as err:
        validate_config(uncoupled_config(alpha=alpha))
    assert err.value.violations == ["AlphaNotPositive"]


def test_half_integer_m():
    with pytest.raises(InvalidModel) as err:
        validate_config(uncoupled_config(m=0.5))
    assert "HalfIntegerM" in err.value.violations


def test_beta_rule_and_multiple_violations():
    cfg = uncoupled_config(gamma=1.0, lam=0.9, beta=0.8, alpha=F(1.0, (2.0,), ()))
    with pytest.raises(InvalidModel) as err:
        validate_config(cfg)
    v = err.value.violations
    assert {"NuNotGreaterThanOne", "AlphaNotPositive"} <= set(v)


@pytest.mark.parametrize("field,value", [
    ("gamma", float("nan")),
    ("d", float("inf")),
    ("h", F(0.0, (), (float("nan"),))),
    ("alpha", F(float("inf"))),
    ("coupling_hy", (F.zero(), F(0.0, (float("nan"),), ()))),
])
def test_non_finite_inputs_rejected(field, value):
    cfg = uncoupled_config(n=4)
    setattr(cfg, field, value)
    with pytest.raises(InvalidModel) as err:
        validate_config(cfg)
    assert err.value.violations == ["NonFinite"]


@pytest.mark.parametrize("field, value, rule", [
    ("n", 1, "NTooSmall"),
    ("gamma", 0.0, "GammaNotPositive"),
    ("gamma", -1.0, "GammaNotPositive"),
    ("d", 0.0, "DNotPositive"),
])
def test_scalar_rules_name_their_violation(field, value, rule):
    cfg = uncoupled_config(n=4)
    setattr(cfg, field, value)
    with pytest.raises(InvalidModel) as err:
        validate_config(cfg)
    assert err.value.violations == [rule]


def test_failure_classes_share_two_bases():
    undecided = (bsl.Inconclusive, bsl.NoTrappingRadius, bsl.NotExpandingInTheta,
                 bsl.NoConvergence, bsl.NotACircleMap, bsl.BranchAmbiguity)
    for cls in undecided:
        assert issubclass(cls, bsl.Undecided)
    for cls in (InvalidModel, EscapedTube):
        assert issubclass(cls, bsl.DomainError) and not issubclass(cls, bsl.Undecided)
    # usage errors stay outside the domain hierarchy
    for cls in (bsl.CaseMismatch, bsl.InsufficientData):
        assert issubclass(cls, ValueError) and not issubclass(cls, bsl.DomainError)
    # the builtin bases are kept
    assert issubclass(bsl.NoTrappingRadius, ValueError)
    assert issubclass(bsl.NoConvergence, RuntimeError)


def test_y_profile_length_mismatch():
    cfg = uncoupled_config(n=4)  # builder gives 2 series per list
    cfg.g0 = cfg.g0[:1]
    with pytest.raises(InvalidModel) as err:
        validate_config(cfg)
    assert "YProfileLengthMismatch" in err.value.violations


def test_saddle_multipliers_contract_volume():
    rng = np.random.default_rng(5)
    for _ in range(10):
        model = validate_config(random_config(rng))
        assert model.rho1 < 1.0 < model.rho_n
        assert abs(model.rho1 * model.rho_n) < 1.0


# -- local map --------------------------------------------------------------


def test_local_map_boundary_case():
    model = validate_config(uncoupled_config())
    x1, y1, theta1, flight = model.t0_raw(model.d, [0.2], 0.7)
    assert flight == 0.0
    assert x1 == pytest.approx(model.d, abs=1e-15)
    assert y1 == pytest.approx([0.2], abs=1e-15)
    assert theta1 == pytest.approx(0.7)


def test_local_map_closed_form():
    model = validate_config(uncoupled_config(gamma=1.0, lam=2.0, beta=3.0, d=1.0))
    z0 = np.exp(-3.0)
    x1, y1, theta1, flight = model.t0_raw(z0, [0.5], 0.0)
    assert flight == pytest.approx(3.0, abs=1e-12)
    assert x1 == pytest.approx(np.exp(-6.0), rel=1e-12)
    assert theta1 == pytest.approx(3.0, abs=1e-12)
    # strong-stable contraction z0^(beta/gamma)
    assert y1[0] == pytest.approx(0.5 * z0 ** 3.0, rel=1e-12)


# -- global map -------------------------------------------------------------


def test_homoclinic_identity_is_exact():
    rng = np.random.default_rng(42)
    for _ in range(10):
        model = validate_config(random_config(rng))
        theta = rng.uniform(0.0, TWO_PI, 1000)
        z0, _, _ = model.t1_raw(0.0, np.zeros((model.ydim, 1000)), theta, 0.0)
        assert np.all(z0 == 0.0)


def test_global_map_constant_profile():
    model = validate_config(uncoupled_config(m=0))
    z0, y0, theta0 = model.t1_raw(0.0, np.zeros(1), 0.0, 1e-4)
    assert z0 == pytest.approx(1e-4, abs=0.0)
    assert np.all(y0 == 0.0)
    assert theta0 == 0.0


def test_global_map_series_evaluation():
    model = validate_config(uncoupled_config(alpha=F(1.0, (0.5,), ())))
    z0, _, _ = model.t1_raw(0.0, np.zeros(1), np.pi, 1e-4)
    assert z0 == pytest.approx(5e-5, rel=1e-12)


# -- return map -------------------------------------------------------------


def test_return_map_closed_form_m0():
    model = validate_config(uncoupled_config(m=0, gamma=1.0, lam=2.0, beta=3.0, d=1.0))
    mu = np.exp(-10.0)
    for theta0 in (0.0, 1.0, 4.0):
        Xb, Yb, lift, flight = model.rescaled_step(1.3, np.array([0.2]), theta0, mu)
        assert Xb == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(Yb, 0.0, atol=1e-10)
        assert lift == pytest.approx(10.0, abs=1e-10)
        assert reduce_angle(lift) == pytest.approx(10.0 - TWO_PI, abs=1e-10)
        assert flight == pytest.approx(10.0, abs=1e-10)


def test_return_map_closed_form_m1():
    model = validate_config(uncoupled_config(m=1, gamma=1.0, lam=2.0, beta=3.0, d=1.0))
    _, _, lift, _ = model.rescaled_step(1.0, np.zeros(1), 1.0, np.exp(-10.0))
    assert lift == pytest.approx(11.0, abs=1e-10)


def test_return_map_requires_positive_mu():
    model = validate_config(uncoupled_config())
    with pytest.raises(ValueError):
        model.rescaled_step(1.0, np.zeros(1), 0.0, 0.0)


def test_step_rejects_a_wrong_y_shape():
    model = validate_config(uncoupled_config())   # n = 3: one Y component
    with pytest.raises(ValueError, match="leading axis of length 1"):
        model.rescaled_step(1.0, np.zeros(2), 0.0, 1e-3)
    flat = validate_config(uncoupled_config(m=1, n=2))   # n = 2: an empty Y must be (0,) + S
    with pytest.raises(ValueError, match="leading axis of length 0"):
        flat.rescaled_step(1.0, np.zeros((1, 0)), 0.0, 1e-3)


@pytest.mark.parametrize("mu", [float("nan"), float("inf"), -1e-3])
def test_mu_input_rule(mu):
    model = validate_config(uncoupled_config())
    with pytest.raises(ValueError, match="mu must be finite and positive"):
        model.rescaled_step(1.0, np.zeros(1), 0.0, mu)
    with pytest.raises(ValueError, match="mu must be finite and positive"):
        model.trapping_radius(mu)
    with pytest.raises(ValueError, match="mu must be finite and positive"):
        bsl.geometric_mu_grid(1e-6, mu)


def test_profile_bounds_are_the_coefficient_sums_of_each_series():
    """``sup_bounds`` and ``deriv_sup_bounds`` hold each named profile's
    bound exactly, in ``_profiles``' order: floats for alpha, h, F_x and
    H_x, (n - 2,) arrays for F_y, H_y and g0."""
    rng = np.random.default_rng(35)
    models = [demo_model(name) for name in ("demo_m0", "demo_m1", "demo_m-1", "demo_m2")]
    models += [validate_config(random_config(rng, coupling_scale=scale))
               for scale in (1e-2, 1e-1, 1.0) for _ in range(70)]
    for model in models:
        c = model.cfg
        for bounds, bound in ((model.sup_bounds, F.sup_bound),
                              (model.deriv_sup_bounds, F.deriv_sup_bound)):
            scalars = [bound(s) for s in (c.alpha, c.h, c.coupling_fx, c.coupling_hx)]
            assert list(bounds[:4]) == scalars
            assert all(type(b) is float for b in bounds[:4])
            for got, series in zip(bounds[4:], (c.coupling_fy, c.coupling_hy, c.g0)):
                assert got.shape == (model.ydim,) and got.tolist() == [bound(s) for s in series]
        assert model.alpha_sup == c.alpha.sup_bound()


def test_trapping_radius_gives_up_after_eight_rounds(monkeypatch):
    """A Y feedback too strong for any radius: every round's excursion
    bounds are finite and keep the angular speed positive, yet the Y
    bound exceeds K, so K grows round after round until the eighth."""
    cfg = uncoupled_config()
    cfg.coupling_hy = (F.constant(100.0),)
    model = validate_config(cfg)
    bounds, radii = model._excursion_bounds, []

    def recording(mu, K):
        radii.append(K)
        out = bounds(mu, K)
        assert out[3] > 0.0          # u_lo: no NoTrappingRadius before the rounds end
        return out

    monkeypatch.setattr(model, "_excursion_bounds", recording)
    with pytest.raises(bsl.NoTrappingRadius, match="no trapping radius certified at mu=0.5"):
        model.trapping_radius(0.5)
    assert len(radii) == 8 and all(b > a for a, b in zip(radii, radii[1:]))


@pytest.mark.parametrize("bad", [float("nan"), 0.0, -1e-3, float("inf")])
def test_mu_input_rule_on_arrays(bad):
    model = demo_model("demo_m2")
    mu = np.array([1e-5, bad, 1e-4])
    with pytest.raises(ValueError, match="mu must be finite and positive"):
        bsl.require_mu(mu)
    X, Y, theta = random_region_points(np.random.default_rng(0), model, 1e-4, 3)
    with pytest.raises(ValueError, match="mu must be finite and positive"):
        model.rescaled_step(X, Y, theta, mu)
    with pytest.raises(ValueError, match="mu must be finite and positive"):
        model.advance(X, Y, theta, mu, 2)
    with pytest.raises(ValueError, match="mu must be finite and positive"):
        bsl.find_fixed_points(model, mu)
    with pytest.raises(ValueError, match="mu must be finite and positive"):
        bsl.mu_sweep(model, mu)


@pytest.mark.parametrize("state_shape, mu_shape", [((3,), (2,)), ((), (3,)), ((4,), (2, 4))])
def test_mu_must_broadcast_to_the_state(state_shape, mu_shape):
    model = demo_model("demo_m2")
    X = np.ones(state_shape)
    Y = np.zeros((model.ydim,) + state_shape)
    with pytest.raises(ValueError, match="broadcast"):
        model.rescaled_step(X, Y, np.zeros(state_shape), np.full(mu_shape, 1e-5))


@pytest.mark.parametrize("n, Y_shape, mu, message", [
    (3, (2, 4), 1e-3, "leading axis of length 1"),
    (2, (1, 4), 1e-3, "leading axis of length 0"),      # n = 2: an empty Y must be (0, 4)
    (3, (1, 4), np.full(3, 1e-3), "broadcast"),
    (3, (1, 4), float("nan"), "mu must be finite and positive"),
    (3, (1, 4), np.array([1e-3, np.inf, 1e-3, 1e-3]), "mu must be finite and positive"),
])
def test_state_rules_hold_in_step_and_advance(n, Y_shape, mu, message):
    """``rescaled_step`` and ``advance`` raise the same ValueError for a
    state that breaks a rule, ``advance`` with ``steps = 0`` included."""
    model = validate_config(uncoupled_config(m=1, n=n))
    X, Y, theta = np.ones(4), np.zeros(Y_shape), np.zeros(4)
    with pytest.raises(ValueError, match=message):
        model.rescaled_step(X, Y, theta, mu)
    for steps in (0, 3):
        with pytest.raises(ValueError, match=message):
            model.advance(X, Y, theta, mu, steps)


def test_advance_checks_the_state_once(monkeypatch):
    """``advance`` checks its state once per call and then steps the
    unchecked kernel on every return; ``rescaled_step`` checks once too."""
    model = demo_model("demo_m2")
    checks, steps = [], []
    check, step = model._require_state, model._step
    monkeypatch.setattr(model, "_require_state", lambda *a: checks.append(1) or check(*a))
    monkeypatch.setattr(model, "_step", lambda *a: steps.append(1) or step(*a))
    model.advance(*model.limit_points(np.zeros(5)), np.full(5, 1e-5), 7)
    assert (len(checks), len(steps)) == (1, 7)
    model.rescaled_step(*model.limit_points(np.zeros(5)), 1e-5)
    assert (len(checks), len(steps)) == (2, 8)


@pytest.mark.parametrize("name", ["demo_m0", "demo_m2", "demo_m1"])
def test_mu_array_matches_scalar_steps(name):
    """One mu per point gives each point its scalar step, Jacobian included."""
    model = demo_model(name)
    rng = np.random.default_rng(5)
    mus = 10.0 ** rng.uniform(-7, -3, 9)
    X, Y, theta = random_region_points(rng, model, 1e-3, 9)
    batch = model.rescaled_step(X, Y, theta, mus, with_jacobian=True)
    for i, mu in enumerate(mus):
        single = model.rescaled_step(X[i], Y[:, i], theta[i], float(mu), with_jacobian=True)
        for j, (got, want) in enumerate(zip(batch, single)):
            np.testing.assert_allclose(got[:, i] if j == 1 else got[i], want,
                                       rtol=1e-13, atol=1e-300)


def test_escapes_are_masked_per_point_without_warnings():
    cfg = uncoupled_config(m=0, gamma=1.0, lam=1.5, beta=3.0)
    cfg.coupling_fx = F.constant(-4.0)
    model = validate_config(cfg)
    mus = np.array([1e-6, 0.9, 1e-5, 0.9])
    X = np.full(4, 1.0)
    Y = np.zeros((1, 4))
    theta = np.array([0.1, 0.2, 0.3, 0.4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, escaped = model._step(X, Y, theta, mus, with_jacobian=True)
        assert escaped.tolist() == [False, True, False, True]
        kept = model.rescaled_step(X[~escaped], Y[:, ~escaped], theta[~escaped], mus[~escaped],
                                   with_jacobian=True)
        for j, (got, want) in enumerate(zip(out, kept)):    # Yb (j = 1) has the points last
            points = got[:, escaped] if j == 1 else got[escaped]
            assert np.all(np.isnan(points))
            assert np.array_equal(got[:, ~escaped] if j == 1 else got[~escaped], want)
        with pytest.raises(EscapedTube):
            model.rescaled_step(X, Y, theta, mus)
        # an escaped point stays NaN through advance, and the others go on
        Xa, Ya, tha, flight = model.advance(X, Y, theta, mus, 5)
        assert np.isnan(flight).tolist() == [False, True, False, True]
        assert np.all(np.isnan(Xa[escaped])) and np.all(np.isnan(tha[escaped]))
        Xk, Yk, thk, flight_k = model.advance(X[~escaped], Y[:, ~escaped], theta[~escaped],
                                              mus[~escaped], 5)
        assert np.array_equal(Xa[~escaped], Xk) and np.array_equal(flight[~escaped], flight_k)


def test_escape_reported():
    cfg = uncoupled_config(m=0, gamma=1.0, lam=1.5, beta=3.0)
    cfg.coupling_fx = F.constant(-4.0)
    model = validate_config(cfg)
    with pytest.raises(EscapedTube):
        model.rescaled_step(1.0, np.zeros(1), 0.0, 0.9)


def test_overflow_is_an_escape():
    model = validate_config(uncoupled_config(m=0, gamma=1.0, lam=1.5, beta=3.0))
    with np.errstate(over="ignore", invalid="ignore"):
        for X in (np.inf, np.nan):
            with pytest.raises(EscapedTube):
                model.rescaled_step(X, np.zeros(1), 0.0, 0.5)


def test_overflowing_image_is_an_escape_without_warnings():
    # z0 is finite here, but the local map's image u ** nu overflows: the
    # escape is flagged on this step, and no numpy warning is printed
    cfg = uncoupled_config(m=0, gamma=1.0, lam=1.5, beta=3.0)
    cfg.coupling_fx = F.constant(1.0)
    model = validate_config(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for X in (1e200, np.array([1.0, 1e200])):
            with pytest.raises(EscapedTube):
                model.rescaled_step(X, np.zeros((1,) + np.shape(X)), 0.0, 0.5)


@pytest.mark.parametrize("name", ["demo_m0", "demo_m1", "demo_m2"])
def test_huge_radial_input_is_an_escape_without_warnings(name):
    # the Jacobian at the escaped point overflows too: still no warning
    model = demo_model(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EscapedTube):
            model.rescaled_step(1e300, np.zeros(model.ydim), 0.3, 1e-5, with_jacobian=True)


def test_escape_contract_of_the_kernel():
    """Random configs, mu and batches with huge and non-finite X: no
    warning; escaped points are NaN in every output, the Jacobian included,
    and the other points' images are finite; ``rescaled_step`` raises
    exactly when a point escaped; and the other points' outputs are bit for
    bit those of the same batch with each escaping X put back on the limit
    curve."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    radial = st.one_of(st.floats(-1e300, 1e300),
                       st.sampled_from([np.nan, np.inf, -np.inf, 1e300, -1e300]))

    @hypothesis.settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @hypothesis.given(st.integers(0, 2 ** 32 - 1), st.integers(2, 5), st.floats(-3.0, 12.0),
                      st.floats(-9.0, 0.0),
                      st.integers(1, 64).flatmap(lambda size: st.lists(
                          st.tuples(radial, st.floats(0.0, TWO_PI)), min_size=size,
                          max_size=size)))
    def check(seed, n, log_scale, log_mu, points):
        rng = np.random.default_rng(seed)
        model = validate_config(random_config(rng, n=n, coupling_scale=10.0 ** log_scale))
        mu = 10.0 ** log_mu
        X, theta = (np.array(column) for column in zip(*points))
        Y = rng.normal(0.0, 0.1, (model.ydim, theta.size))
        for with_jacobian in (False, True):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out, escaped = model._step(X, Y, theta, mu, with_jacobian)
                try:
                    model.rescaled_step(X, Y, theta, mu, with_jacobian)
                    raised = False
                except EscapedTube:
                    raised = True
                assert raised == escaped.any()
                X_on_curve = np.where(escaped, model.limit_radial(theta), X)
                kept, _ = model._step(X_on_curve, Y, theta, mu, with_jacobian)
            if with_jacobian:   # the point axes last, as in the other outputs
                out, kept = (o[:4] + (np.moveaxis(o[4], (-2, -1), (0, 1)),) for o in (out, kept))
            for value, again in zip(out, kept):
                assert np.all(np.isnan(value[..., escaped]))
                assert value[..., ~escaped].tobytes() == again[..., ~escaped].tobytes()
            # kept points have finite images, and with the Jacobian a finite Jacobian
            assert all(np.all(np.isfinite(value[..., ~escaped])) for value in out)

    check()


def test_non_finite_jacobian_is_an_escape():
    """A point whose image is finite but whose Jacobian has an infinite
    entry is kept without the Jacobian and escaped with it."""
    rng = np.random.default_rng(67585)
    model = validate_config(random_config(rng, n=3, coupling_scale=10 ** 1.5))
    Y = rng.normal(0.0, 0.1, (1, 1))
    X, theta = np.array([-2.0840101310388343e97]), np.array([4.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (Xb, *_), escaped = model._step(X, Y, theta, 0.1)
        assert not escaped[0] and np.isfinite(Xb[0])
        out, escaped = model._step(X, Y, theta, 0.1, with_jacobian=True)
        assert escaped[0]
        assert all(np.all(np.isnan(value)) for value in out)
        with pytest.raises(EscapedTube, match="Jacobian"):
            model.rescaled_step(X, Y, theta, 0.1, with_jacobian=True)


def test_return_map_converges_to_limit_formula():
    model = validate_config(coupled_config(m=1, n=3, alpha=F(1.0, (0.5,), ()),
                                           h=F(0.0, (), (0.2,))))

    def limit_error(mu):
        theta = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        X = model.limit_radial(theta)
        Y = np.zeros((1, theta.size))
        Xb, Yb, lift, _ = model.rescaled_step(X, Y, theta, mu)
        alpha = model.cfg.alpha.eval(theta)
        lift_limit = model.omega(mu) + model.m * theta + model.cfg.h.eval(theta) \
            - np.log(alpha) / model.gamma
        return max(
            float(np.max(np.abs(Xb - alpha ** model.nu))),
            float(np.max(np.abs(Yb))),
            float(np.max(np.abs(lift - lift_limit))),
        )

    e4, e6 = limit_error(1e-4), limit_error(1e-6)
    assert e6 < 0.1 * e4
    assert e4 < 1e-2


# -- jacobian ---------------------------------------------------------------


def test_jacobian_structure_uncoupled_m0():
    model = validate_config(uncoupled_config(m=0, alpha=F(1.0, (0.3,), ())))
    *_, jac = model.rescaled_step(1.2, np.array([0.1]), 0.4, 1e-5, with_jacobian=True)
    assert jac[0, 0] == 0.0           # constant in X when couplings vanish
    assert jac[2, 0] == 0.0
    assert jac[0, 2] != 0.0           # alpha depends on theta


def test_jacobian_linear_circle_map():
    model = validate_config(uncoupled_config(m=2, n=4, gamma=1.0, lam=1.7, beta=3.0))
    *_, jac = model.rescaled_step(1.0, np.zeros(2), 0.9, 1e-5, with_jacobian=True)
    assert jac[3, 3] == 2.0


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(123)
    for _ in range(6):
        model = validate_config(random_config(rng, coupling_scale=1e-2))
        mu = 10.0 ** rng.uniform(-6, -4)
        X, Y, theta = random_region_points(rng, model, mu, 20)
        for i in range(20):
            yi = Y[:, i]
            *_, jac = model.rescaled_step(X[i], yi, theta[i], mu, with_jacobian=True)
            fd = fd_jacobian(model, mu, X[i], yi, theta[i])
            rel = np.linalg.norm(fd - jac) / max(1.0, np.linalg.norm(jac))
            assert rel < 1e-6


def test_jacobian_n2_no_strong_stable_block():
    model = validate_config(uncoupled_config(m=1, n=2, gamma=1.0, lam=1.5, beta=2.0))
    *_, jac = model.rescaled_step(1.0, np.zeros(0), 0.3, 1e-4, with_jacobian=True)
    assert jac.shape == (2, 2)
    assert jac[1, 1] == pytest.approx(1.0)


@pytest.mark.parametrize("shape", [(), (256,), (3, 5)])
@pytest.mark.parametrize("name", ["demo_m2", "demo_m1"])
def test_jacobian_is_a_view_of_a_component_major_block(name, shape):
    """The Jacobian comes back as S + (n, n), a view whose (n, n) + S
    transpose is contiguous: one row of length S per entry.  Its values are
    those of the flattened batch."""
    model = demo_model(name)
    X, Y, theta = random_region_points(np.random.default_rng(3), model, 1e-5, int(np.prod(shape)))
    X, theta, Y = X.reshape(shape), theta.reshape(shape), Y.reshape((model.ydim,) + shape)
    jac = model.rescaled_step(X, Y, theta, 1e-5, with_jacobian=True)[4]
    assert jac.shape == shape + (model.n, model.n)
    assert np.moveaxis(jac, (-2, -1), (0, 1)).flags.c_contiguous
    flat = model.rescaled_step(X.ravel(), Y.reshape(model.ydim, -1), theta.ravel(), 1e-5,
                               with_jacobian=True)[4]
    np.testing.assert_array_equal(jac.reshape(flat.shape), flat)


def test_escaped_jacobian_blocks_are_nan():
    """An escaped point's (n, n) block is all NaN, alone (a 0-d escape
    mask) and inside a batch, where the other points stay finite."""
    cfg = uncoupled_config(m=0, gamma=1.0, lam=1.5, beta=3.0)
    cfg.coupling_fx = F.constant(-4.0)
    model = validate_config(cfg)
    (*_, jac), escaped = model._step(1.0, np.zeros(1), 0.2, 0.9, with_jacobian=True)
    assert escaped and jac.shape == (3, 3) and np.all(np.isnan(jac))
    mus = np.array([1e-6, 0.9, 1e-5])
    (*_, jac), escaped = model._step(np.ones(3), np.zeros((1, 3)), np.array([0.1, 0.2, 0.3]), mus,
                                     with_jacobian=True)
    assert escaped.tolist() == [False, True, False]
    assert np.all(np.isnan(jac[1])) and np.all(np.isfinite(jac[[0, 2]]))


def test_return_map_matches_raw_composition():
    """The rescaled step must agree with unrescale -> T1 -> T0 -> rescale."""
    rng = np.random.default_rng(77)
    for _ in range(5):
        model = validate_config(random_config(rng, coupling_scale=1e-2))
        mu = 10.0 ** rng.uniform(-6, -4)
        X, Y, theta = random_region_points(rng, model, mu, 16)
        Xb, Yb, lift, flight = model.rescaled_step(X, Y, theta, mu)

        c_x = model.d ** (1.0 - model.nu) * mu ** model.nu
        z0, y0, th0 = model.t1_raw(c_x * X, mu ** model.nu * Y, theta, mu)
        x1, y1, th1, fl = model.t0_raw(z0, y0, th0)
        assert np.allclose(x1 / c_x, Xb, rtol=1e-12, atol=1e-300)
        assert np.allclose(y1 / mu ** model.nu, Yb, rtol=1e-10, atol=1e-250)
        assert np.allclose(th1, lift, rtol=1e-12)
        assert np.allclose(fl, flight, rtol=1e-12)


def test_global_map_degree_periodicity():
    rng = np.random.default_rng(78)
    for _ in range(5):
        model = validate_config(random_config(rng))
        theta = rng.uniform(0.0, TWO_PI, 32)
        zeros = np.zeros((model.ydim, 32))
        _, _, th0 = model.t1_raw(0.0, zeros, theta, 1e-4)
        _, _, th0_shift = model.t1_raw(0.0, zeros, theta + TWO_PI, 1e-4)
        assert np.allclose(th0_shift - th0, TWO_PI * model.m, atol=1e-9)


# -- invariants -------------------------------------------------------------


def test_trapping_region_maps_into_itself():
    for name, mu in (("demo_m0", 1e-4), ("demo_m1", 1e-4), ("demo_m2", 1e-5)):
        assert check_trapping(demo_model(name), mu)


def test_trapping_samples_are_the_core_and_face_centres():
    for name, mu in (("demo_m0", 1e-4), ("demo_m1", 1e-4), ("demo_m2", 1e-5)):
        model = demo_model(name)
        K = model.trapping_radius(mu)
        th, X, Y = model.trapping_samples(np.arange(64) * (TWO_PI / 64), K)
        r = model.n - 1
        assert th.shape == X.shape == (64 * (2 * r + 1),)
        assert Y.shape == (model.ydim, th.size)
        offsets = np.vstack((X - model.limit_radial(th), Y))
        # every sample in the closed torus, on at most one radial axis
        assert np.all(np.abs(offsets[0]) <= K * (1.0 + 1e-12))
        assert np.all(np.sqrt(np.sum(offsets[1:] ** 2, axis=0)) <= K * (1.0 + 1e-12))
        assert np.all(np.count_nonzero(offsets, axis=0) <= 1)
        for axis in range(r):
            assert np.sum(offsets[axis] > 0.5 * K) == np.sum(offsets[axis] < -0.5 * K) == 64


def test_diffeomorphism_along_orbits():
    rng = np.random.default_rng(9)
    model = demo_model("demo_m2")
    mu = 1e-5
    X, Y, theta = random_region_points(rng, model, mu, 32)
    for _ in range(60):
        *_, jac = model.rescaled_step(X, Y, theta, mu, with_jacobian=True)
        dets = np.linalg.det(jac)
        assert np.all(np.abs(dets) > 0.0)
        Xb, Yb, lift, _ = model.rescaled_step(X, Y, theta, mu)
        X, Y, theta = Xb, Yb, reduce_angle(lift)


def test_winding_over_fundamental_loop():
    for name, mu in (("demo_m0", 1e-5), ("demo_m1", 1e-4),
                     ("demo_m-1", 1e-4), ("demo_m2", 1e-5)):
        model = demo_model(name)
        theta = np.linspace(0.0, TWO_PI, 2049)
        X = model.limit_radial(theta)
        Y = np.zeros((model.ydim, theta.size))
        _, _, lift, _ = model.rescaled_step(X, Y, theta, mu)
        total = np.unwrap(reduce_angle(lift))
        assert int(np.round((total[-1] - total[0]) / TWO_PI)) == model.m


def test_orbit_stays_in_trapping_region():
    model = demo_model("demo_m1")
    mu = 1e-4
    K = model.trapping_radius(mu)
    rng = np.random.default_rng(17)
    X, Y, theta = random_region_points(rng, model, mu, 16)
    X, Y, theta = advance(model, mu, X, Y, theta, 200)
    assert np.all(np.abs(X - model.limit_radial(theta)) < K)


# -- config file ingestion ---------------------------------------------------


def test_load_demo_configs():
    for name in ("demo_m0", "demo_m1", "demo_m-1", "demo_m2"):
        model = demo_model(name)
        assert model.nu > 1.0


def test_parse_rejects_missing_and_unknown_keys():
    with open(CONFIG_DIR / "demo_m0.json", encoding="utf-8") as fh:
        data = json.load(fh)
    broken = dict(data)
    del broken["alpha"]
    with pytest.raises(ValueError, match="missing"):
        parse_config(broken)
    extra = dict(data)
    extra["bogus"] = 1
    with pytest.raises(ValueError, match="unknown"):
        parse_config(extra)


@pytest.mark.parametrize("edit, message", [
    (lambda data: [data], "config root must be a mapping"),
    (lambda data: data | {"coupling_fy": {"constant": 0.0}}, "coupling_fy must be a list"),
    (lambda data: data | {"n": 3.5}, "n must be an integer"),
])
def test_parse_rejects_malformed_entries(edit, message):
    with open(CONFIG_DIR / "demo_m1.json", encoding="utf-8") as fh:
        data = json.load(fh)
    with pytest.raises(ValueError, match=message):
        parse_config(edit(data))


def test_config_roundtrip():
    model = demo_model("demo_m2")
    again = parse_config(model.cfg.to_dict())
    assert again == model.cfg


def test_torus_point_reduces_angle():
    p = TorusPoint(7.0, 1.0, [0.0])
    assert 0.0 <= p.theta < TWO_PI
    assert p.theta == pytest.approx(7.0 - TWO_PI)


@pytest.mark.parametrize("value, minimum", [(0, 1), (-2, 0), (10.7, 1), ("3", 1), (None, 0)])
def test_count_rule_rejects(value, minimum):
    with pytest.raises(ValueError, match="n_things"):
        require_count("n_things", value, minimum)


def test_count_rule_accepts_integers():
    assert require_count("n", 0, 0) == 0
    assert require_count("n", np.int64(7), 1) == 7


@pytest.mark.parametrize("name, mu, shape", [
    ("demo_m0", 1e-5, ()), ("demo_m2", 1e-5, ()),
    ("demo_m2", 1e-5, (33,)), ("demo_m1", 1e-4, (5, 4)),
])
def test_advance_equals_a_step_loop(name, mu, shape):
    model = demo_model(name)
    rng = np.random.default_rng(3)
    theta = rng.uniform(0.0, TWO_PI, shape)
    X = model.limit_radial(theta) * (1.0 + 0.01 * rng.uniform(-1, 1, shape))
    Y = 0.01 * rng.uniform(-1, 1, (model.ydim,) + shape)
    Xr, Yr, thr, total = X, Y, theta, 0.0
    for _ in range(7):
        Xr, Yr, lift, flight = model.rescaled_step(Xr, Yr, thr, mu)
        thr = reduce_angle(lift)
        total = total + flight
    Xa, Ya, tha, flight_sum = model.advance(X, Y, theta, mu, 7)
    for got, want in ((Xa, Xr), (Ya, Yr), (tha, thr), (flight_sum, total)):
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)
    assert np.all((tha >= 0.0) & (tha < TWO_PI))
    X0, Y0, th0, flight0 = model.advance(X, Y, theta, mu, 0)
    assert X0 is X and Y0 is Y and th0 is theta and flight0 == 0.0
    with pytest.raises(ValueError, match="steps"):
        model.advance(X, Y, theta, mu, -1)
