"""Tests of the benchmark's own parts: the reference map, the tracer and the
comparison of result files.

Run from the repository root:  python3 -m pytest -q benchmark
"""

import json
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import blueskylab as bsl  # noqa: E402
import blueskylab.cli  # noqa: E402,F401

import compare  # noqa: E402
from reference import ReferenceMap  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import Solenoid  # noqa: E402

DEMOS = ("demo_m0", "demo_m1", "demo_m-1", "demo_m2")


def config_cases(tmp_path):
    cases = [json.loads((ROOT / "configs" / f"{name}.json").read_text()) for name in DEMOS]
    generated = Solenoid(7, tmp_path, ROOT)
    cases += [generated.config_data("high_n_m2"), generated.config_data("uncoupled_m2")]
    return cases


@pytest.mark.parametrize("mu", [1e-7, 1e-5, 1e-3])
def test_reference_map_agrees_with_rescaled_step(tmp_path, mu):
    rng = np.random.default_rng(11)
    for data in config_cases(tmp_path):
        model = bsl.validate_config(bsl.parse_config(data))
        ref = ReferenceMap(data, mu)
        K = model.trapping_radius(mu)
        k = model.ydim
        for _ in range(20):
            theta = rng.uniform(0.0, 2.0 * np.pi)
            X = float(model.limit_radial(theta)) + K * rng.uniform(-1.0, 1.0)
            Y = K / max(1, k) ** 0.5 * rng.uniform(-1.0, 1.0, k)
            Xb, Yb, lift, _, jac = model.rescaled_step(X, Y, theta, mu, with_jacobian=True)
            rX, rY, rlift = ref.step(X, Y, theta)
            assert rX == pytest.approx(float(Xb), rel=1e-12, abs=1e-14)
            assert np.allclose(rY, Yb, rtol=1e-12, atol=1e-14)
            assert rlift == pytest.approx(float(lift), rel=1e-13, abs=1e-12)
            fd = ref.jacobian(X, Y, theta)
            assert np.linalg.norm(fd - jac) <= 1e-6 * max(1.0, np.linalg.norm(jac))


def test_traced_self_times_sum_to_the_traced_wall(tmp_path):
    """Self times add up to the traced wall within 2% + 2 ms (the gap is the
    test's own code between the traced calls)."""
    demo = {name: bsl.load_model(ROOT / "configs" / f"{name}.json") for name in DEMOS}
    original = bsl.cone_certify
    tracer = Tracer()
    with tracer.install(bsl):
        start = perf_counter()
        bsl.cone_certify(demo["demo_m2"], 1e-5, 64)
        bsl.graph_transform_curve(demo["demo_m1"], 1e-4, grid_size=2 ** 16)
        bsl.lyapunov_spectrum(demo["demo_m2"], 1e-5, 2000, transient=100)
        code = bsl.cli.main(["sweep", str(ROOT / "configs" / "demo_m0.json"), "--mu-min", "1e-6",
                             "--mu-max", "1e-3", "--per-decade", "3", "--out", str(tmp_path)])
        wall = perf_counter() - start
    assert code == 0
    assert bsl.cone_certify is original and bsl.analysis.cone_certify is original
    total_self = sum(tracer.self_s.values())
    assert total_self == pytest.approx(tracer.covered_s(), rel=1e-9)
    assert abs(wall - total_self) <= 0.02 * wall + 2e-3
    # children lie inside their parents, and cross-layer calls are seen
    for name, parent, start_, end in tracer.spans:
        if parent >= 0:
            assert tracer.spans[parent][2] <= start_ <= end <= tracer.spans[parent][3]
    assert tracer.calls["conditions.certified_angular_expansion"] >= 1
    assert tracer.calls["experiments.mu_sweep"] == 1
    assert tracer.counts["analysis.graph_transform_curve.iterations"] >= 1
    assert tracer.counts["analysis.lyapunov_spectrum.returns"] == 2100
    assert tracer.counts["cli.main.csv_bytes"] == (tmp_path / "sweep.csv").stat().st_size


def records(workload, values):
    return [{"workload": workload, "seed": seed, "trace": 0, "detail": {},
             "result": {"metrics": {"wall_s": {"value": v, "unit": "s"}}}}
            for seed, v in enumerate(values)]


SPEC = {"workloads": [{"name": "w"}],
        "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}


def test_compare_flags_a_regression_beyond_the_bound():
    base = records("w", [1.0 + 0.002 * i for i in range(10)])
    slower = records("w", [1.15 + 0.002 * i for i in range(10)])
    within = records("w", [1.05 + 0.002 * i for i in range(10)])
    faster = records("w", [0.8 + 0.002 * i for i in range(10)])
    assert compare.compare(base, slower, SPEC)[0]["status"] == "regression"
    assert compare.compare(base, within, SPEC)[0]["status"] == "unchanged"
    assert compare.compare(base, faster, SPEC)[0]["status"] == "improved"


def test_compare_is_unresolved_when_the_spread_exceeds_the_bound():
    noisy = records("w", [0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0])
    change = records("w", [1.2, 1.3, 0.9, 1.25, 1.1, 1.0, 1.3, 1.15, 1.2, 1.05])
    assert compare.compare(noisy, change, SPEC)[0]["status"] == "unresolved"
    # unless every run of the change beats every run of the parent
    clear = records("w", [0.3 + 0.01 * i for i in range(10)])
    assert compare.compare(noisy, clear, SPEC)[0]["status"] == "improved"
