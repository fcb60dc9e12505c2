"""The benchmark traces public functions from outside (``benchmark/spans.py``):
every traced name must resolve on the package, and the argument positions
its hooks read must match the signatures."""

import importlib
import importlib.util
import inspect

from helpers import CONFIG_DIR

SPANS = CONFIG_DIR.parent / "benchmark" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name, cls_name, attr):
    module = importlib.import_module(f"blueskylab.{module_name}")
    owner = getattr(module, cls_name) if cls_name else module
    return getattr(owner, attr)


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
