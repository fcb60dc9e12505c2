"""The benchmark traces public functions from outside (``benchmark/spans.py``):
every traced name must resolve on the package, and the argument positions
its hooks read must match the signatures.  One round of each workload runs
and passes its checks."""

import importlib
import importlib.util
import inspect
import json
import sys

import numpy as np
import pytest

from helpers import CONFIG_DIR, trig_interpolant

ROOT = CONFIG_DIR.parent
BENCH = ROOT / "benchmark"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _bench(name):
    """``benchmark/<name>.py``, loaded as the module ``benchmark_<name>``
    (registered first, as its dataclasses need)."""
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _resolve(module_name, cls_name, attr):
    """The traced object, looked up as ``Tracer.install`` looks it up: a
    method in its class's own ``__dict__`` (an inherited or aliased method
    would not be patched there), a function by name on its module."""
    module = importlib.import_module(f"blueskylab.{module_name}")
    if cls_name:
        return vars(getattr(module, cls_name))[attr]
    return getattr(module, attr)


def test_every_traced_function_resolves():
    spans = _bench("spans")
    for qual, (module_name, cls_name, attr) in spans.TRACED.items():
        assert callable(_resolve(module_name, cls_name, attr)), qual
    assert set(spans.HOOKS) <= set(spans.TRACED)


def test_hook_argument_positions_match_the_signatures():
    spans = _bench("spans")
    read = {
        "model.rescaled_step": {"X": 1, "theta": 3, "with_jacobian": 5},
        "cli.main": {"argv": 0},
    }
    for qual, positions in read.items():
        params = list(inspect.signature(_resolve(*spans.TRACED[qual])).parameters.values())
        for name, position in positions.items():
            assert params[position].name == name, (qual, name)
    # the check_case hook falls back to a starting grid of 4096 when no
    # grid_size is passed, which is always: the grid starts at DEFAULT_GRID
    check_case = inspect.signature(_resolve(*spans.TRACED["conditions.check_case"])).parameters
    assert "grid_size" not in check_case
    assert importlib.import_module("blueskylab.fourier").DEFAULT_GRID == 4096


def test_graph_transform_steps_through_the_traced_kernel(monkeypatch):
    """The benchmark counts graph-transform iterations as the
    ``ValidatedModel.rescaled_step`` calls made inside the solve, wrapping
    the class attribute as ``Tracer.install`` does: every iteration must make
    exactly one such call, on the uniform grid of the solve's N nodes, the
    first from the limit curve, and none may repeat another."""
    bsl = importlib.import_module("blueskylab")
    original = vars(bsl.ValidatedModel)["rescaled_step"]
    calls = []

    def counted(self, X, Y, theta, *args, **kwargs):
        out = original(self, X, Y, theta, *args, **kwargs)
        calls.append((np.vstack([X, Y]), np.array(theta), np.vstack([out[0], out[1]]), out[2]))
        return out

    monkeypatch.setattr(bsl.ValidatedModel, "rescaled_step", counted)
    monkeypatch.setattr(bsl.analysis, "CURVE_TOL", 1e-11)
    model = bsl.load_model(CONFIG_DIR / "demo_m1.json")
    # at this tolerance the solve takes two steps on 128 nodes, doubles, and
    # takes three on 256
    curve = bsl.graph_transform_curve(model, 1e-4, 2 ** 12)
    assert [len(theta) for _, theta, _, _ in calls] == [128, 128, 256, 256, 256]
    assert np.array_equal(calls[0][0], np.vstack([model.limit_radial(calls[0][1]),
                                                  np.zeros((model.ydim, 128))]))
    for _, theta, _, _ in calls:
        assert np.array_equal(theta, np.arange(len(theta)) * (2.0 * np.pi / len(theta)))
    for i, (radial, _, _, _) in enumerate(calls):
        assert not any(np.array_equal(radial, later[0]) for later in calls[i + 1 :])
    for (radial, theta, image, lift), (radial_next, theta_next, _, _) in zip(calls, calls[1:]):
        if len(theta_next) == len(theta):
            # the next iterate passes through this call's image: one step
            on_next = trig_interpolant(radial_next, np.mod(lift, 2.0 * np.pi))
            np.testing.assert_allclose(on_next, image, rtol=0, atol=1e-9)
        else:
            # a doubled grid starts from the same polynomial
            np.testing.assert_allclose(radial_next[:, ::2], radial, rtol=0, atol=1e-13)
    # the last call stepped from the returned curve
    last = calls[-1][0]
    np.testing.assert_allclose(curve.radial_values[:: 2 ** 12 // last.shape[1]].T, last,
                               rtol=0, atol=1e-13)


@pytest.mark.parametrize("name", WORKLOADS)
def test_one_benchmark_round_runs_and_passes_its_checks(name, tmp_path, monkeypatch):
    """One round of each workload through ``run.run_round`` (seed 5): no
    operation fails and ``check`` finds no problem, so a change of the API
    the benchmark calls shows here, not as a failed benchmark run."""
    monkeypatch.syspath_prepend(str(BENCH))     # workloads.py imports reference.py
    importlib.import_module("blueskylab.cli")   # the sweep operations call bsl.cli.main
    bsl = importlib.import_module("blueskylab")
    workload = _bench("workloads").WORKLOADS[name](5, tmp_path, ROOT)
    result = _bench("run").run_round(workload.ops(bsl))
    assert result["failed"] == []
    assert workload.check(bsl, result["outputs"]) == []
