"""The benchmark traces public functions from outside (``benchmark/spans.py``):
every traced name must resolve on the package, and the argument positions
its hooks read must match the signatures."""

import importlib
import importlib.util
import inspect

import numpy as np

from helpers import CONFIG_DIR

SPANS = CONFIG_DIR.parent / "benchmark" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
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
    spans = _spans()
    for qual, (module_name, cls_name, attr) in spans.TRACED.items():
        assert callable(_resolve(module_name, cls_name, attr)), qual
    assert set(spans.HOOKS) <= set(spans.TRACED)


def test_hook_argument_positions_match_the_signatures():
    spans = _spans()
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
    exactly one such call, on the whole node grid, and none may repeat."""
    bsl = importlib.import_module("blueskylab")
    original = vars(bsl.ValidatedModel)["rescaled_step"]
    calls = []

    def counted(self, X, Y, theta, *args, **kwargs):
        calls.append((np.array(X), np.array(Y), np.array(theta)))
        return original(self, X, Y, theta, *args, **kwargs)

    monkeypatch.setattr(bsl.ValidatedModel, "rescaled_step", counted)
    model = bsl.load_model(CONFIG_DIR / "demo_m1.json")
    curve = bsl.graph_transform_curve(model, 1e-4, 2 ** 12, tol=1e-6)
    # this solve interpolates twice, so it makes three steps: from the limit
    # curve, from each interpolated iterate, the last one giving the residual
    assert len(calls) == 3
    assert np.array_equal(calls[0][0], model.limit_radial(curve.theta_grid))
    for (X, Y, theta), (X_next, _, _) in zip(calls, calls[1:]):
        assert np.array_equal(theta, curve.theta_grid)
        assert not np.array_equal(X, X_next)
    assert np.array_equal(np.column_stack([calls[-1][0], calls[-1][1].T]), curve.radial_values)
