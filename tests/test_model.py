import json
import warnings

import numpy as np
import pytest

import blueskylab as bsl
from blueskylab import (
    EscapedTube,
    FourierSeries as F,
    InvalidModel,
    NotInPositiveHalf,
    RawSectionPoint,
    Section,
    TorusPoint,
    global_map_T1,
    local_map_T0,
    parse_config,
    return_map,
    return_map_jacobian,
    validate_config,
)
from blueskylab.model import reduce_angle, require_count

from helpers import (
    CONFIG_DIR,
    advance,
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


def test_failure_classes_share_two_bases():
    undecided = (bsl.Inconclusive, bsl.NoTrappingRadius, bsl.NotExpandingInTheta,
                 bsl.NoConvergence, bsl.NotACircleMap, bsl.BranchAmbiguity)
    for cls in undecided:
        assert issubclass(cls, bsl.Undecided)
    for cls in (InvalidModel, EscapedTube, NotInPositiveHalf):
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
    p = RawSectionPoint(Section.S0, theta=0.7, coord_a=model.d, coord_b=[0.2])
    out, flight = local_map_T0(p, model)
    assert out.section is Section.S1
    assert flight == 0.0
    assert out.coord_a == pytest.approx(model.d, abs=1e-15)
    assert out.theta == pytest.approx(0.7)


def test_local_map_closed_form():
    model = validate_config(uncoupled_config(gamma=1.0, lam=2.0, beta=3.0, d=1.0))
    z0 = np.exp(-3.0)
    out, flight = local_map_T0(RawSectionPoint(Section.S0, 0.0, z0, [0.5]), model)
    assert flight == pytest.approx(3.0, abs=1e-12)
    assert out.coord_a == pytest.approx(np.exp(-6.0), rel=1e-12)
    assert out.theta == pytest.approx(3.0, abs=1e-12)
    # strong-stable contraction z0^(beta/gamma)
    assert out.coord_b[0] == pytest.approx(0.5 * z0 ** 3.0, rel=1e-12)


def test_local_map_wrong_side():
    model = validate_config(uncoupled_config())
    with pytest.raises(NotInPositiveHalf):
        local_map_T0(RawSectionPoint(Section.S0, 0.0, -0.1, [0.0]), model)
    with pytest.raises(ValueError):
        local_map_T0(RawSectionPoint(Section.S1, 0.0, 0.5, [0.0]), model)


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
    p = RawSectionPoint(Section.S1, theta=0.0, coord_a=0.0, coord_b=[0.0])
    out = global_map_T1(p, 1e-4, model)
    assert out.section is Section.S0
    assert out.coord_a == pytest.approx(1e-4, abs=0.0)
    assert out.theta == 0.0


def test_global_map_series_evaluation():
    model = validate_config(uncoupled_config(alpha=F(1.0, (0.5,), ())))
    out = global_map_T1(RawSectionPoint(Section.S1, np.pi, 0.0, [0.0]), 1e-4, model)
    assert out.coord_a == pytest.approx(5e-5, rel=1e-12)


# -- return map -------------------------------------------------------------


def test_return_map_closed_form_m0():
    model = validate_config(uncoupled_config(m=0, gamma=1.0, lam=2.0, beta=3.0, d=1.0))
    mu = np.exp(-10.0)
    for theta0 in (0.0, 1.0, 4.0):
        q, winding, flight = return_map(TorusPoint(theta0, 1.3, [0.2]), mu, model)
        assert q.X == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(q.Y, 0.0, atol=1e-10)
        assert q.theta == pytest.approx(10.0 - TWO_PI, abs=1e-10)
        assert winding == 1
        assert flight == pytest.approx(10.0, abs=1e-10)


def test_return_map_closed_form_m1():
    model = validate_config(uncoupled_config(m=1, gamma=1.0, lam=2.0, beta=3.0, d=1.0))
    q, winding, _ = return_map(TorusPoint(1.0, 1.0, [0.0]), np.exp(-10.0), model)
    assert q.theta == pytest.approx(11.0 - TWO_PI, abs=1e-10)
    assert winding == 1


def test_return_map_requires_positive_mu():
    model = validate_config(uncoupled_config())
    with pytest.raises(ValueError):
        return_map(TorusPoint(0.0, 1.0, [0.0]), 0.0, model)


@pytest.mark.parametrize("mu", [float("nan"), float("inf"), -1e-3])
def test_mu_input_rule(mu):
    model = validate_config(uncoupled_config())
    with pytest.raises(ValueError, match="mu must be finite and positive"):
        return_map(TorusPoint(0.0, 1.0, [0.0]), mu, model)
    with pytest.raises(ValueError, match="mu must be finite and positive"):
        model.trapping_radius(mu)
    with pytest.raises(ValueError, match="mu must be finite and positive"):
        bsl.geometric_mu_grid(1e-6, mu)


def test_escape_reported():
    cfg = uncoupled_config(m=0, gamma=1.0, lam=1.5, beta=3.0)
    cfg.coupling_fx = F.constant(-4.0)
    model = validate_config(cfg)
    with pytest.raises(EscapedTube):
        return_map(TorusPoint(0.0, 1.0, [0.0]), 0.9, model)


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


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_series_bank_profile_rows_match_full_evaluation(path):
    bank = bsl.load_model(path)._bank
    theta = np.linspace(-4.0, 11.0, 4099)
    full = bank.eval(theta, derivatives=True)
    assert full.shape == (2 * bank.n_base,) + theta.shape
    assert np.array_equal(bank.eval(theta), full[: bank.n_base])
    assert np.array_equal(bank.eval(0.3), bank.eval(np.array([0.3]))[:, 0])


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
    jac = return_map_jacobian(TorusPoint(0.4, 1.2, [0.1]), 1e-5, model)
    assert jac[0, 0] == 0.0           # constant in X when couplings vanish
    assert jac[2, 0] == 0.0
    assert jac[0, 2] != 0.0           # alpha depends on theta


def test_jacobian_linear_circle_map():
    model = validate_config(uncoupled_config(m=2, n=4, gamma=1.0, lam=1.7, beta=3.0))
    jac = return_map_jacobian(TorusPoint(0.9, 1.0, [0.0, 0.0]), 1e-5, model)
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
    p = TorusPoint(0.3, 1.0, np.zeros(0))
    jac = return_map_jacobian(p, 1e-4, model)
    assert jac.shape == (2, 2)
    assert jac[1, 1] == pytest.approx(1.0)


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


def test_winding_reconstructs_lift():
    model = demo_model("demo_m2")
    mu = 1e-5
    rng = np.random.default_rng(79)
    for _ in range(20):
        p = TorusPoint(rng.uniform(0, TWO_PI), 1.0 + 0.2 * rng.uniform(-1, 1),
                       0.05 * rng.uniform(-1, 1, 2))
        q, winding, _ = return_map(p, mu, model)
        lift = model.rescaled_step(p.X, p.Y, p.theta, mu)[2]
        assert float(lift) == pytest.approx(q.theta + TWO_PI * winding, abs=1e-9)


# -- invariants -------------------------------------------------------------


def test_trapping_region_maps_into_itself():
    for name, mu in (("demo_m0", 1e-4), ("demo_m1", 1e-4), ("demo_m2", 1e-5)):
        model = demo_model(name)
        assert model.check_trapping(mu)


def test_trapping_samples_are_the_core_and_face_centres():
    for name, mu in (("demo_m0", 1e-4), ("demo_m1", 1e-4), ("demo_m2", 1e-5)):
        model = demo_model(name)
        th, X, Y, K = model.trapping_samples(mu, n_theta=64)
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


def test_trapping_samples_need_an_angle():
    for n_theta in (0, -1, 2.0):
        with pytest.raises(ValueError, match="n_theta"):
            demo_model("demo_m2").trapping_samples(1e-5, n_theta=n_theta)


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
