"""Spans around calls into blueskylab's public functions, recorded from outside.

``Tracer.install`` replaces each traced function by a wrapper in every
blueskylab namespace that bound it (``from .x import y`` copies the name,
so cross-layer calls go through the copy), and on the class for methods.
Each call becomes a span (name, start, end, parent span); self time is the
span's duration minus the time its child spans cover.  Counts are taken at
the same boundaries from arguments, return values and child spans.
``uninstall`` puts the original functions back, so untraced runs execute
the program unchanged.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from collections import Counter, defaultdict
from time import perf_counter

# qualified span name -> (module, class or None, attribute)
TRACED = {
    "model.load_model": ("model", None, "load_model"),
    "model.validate_config": ("model", None, "validate_config"),
    "model.rescaled_step": ("model", "ValidatedModel", "rescaled_step"),
    "model.trapping_radius": ("model", "ValidatedModel", "trapping_radius"),
    "model.trapping_samples": ("model", "ValidatedModel", "trapping_samples"),
    "fourier.eval": ("fourier", "FourierSeries", "eval"),
    "conditions.check_case": ("conditions", None, "check_case"),
    "conditions.certified_angular_expansion": ("conditions", None, "certified_angular_expansion"),
    "conditions.criterion_function": ("conditions", None, "criterion_function"),
    "analysis.find_fixed_point": ("analysis", None, "find_fixed_point"),
    "analysis.graph_transform_curve": ("analysis", None, "graph_transform_curve"),
    "analysis.circle_degree": ("analysis", None, "circle_degree"),
    "analysis.cone_certify": ("analysis", None, "cone_certify"),
    "analysis.certify_jacobian_field": ("analysis", None, "certify_jacobian_field"),
    "analysis.lyapunov_spectrum": ("analysis", None, "lyapunov_spectrum"),
    "analysis.branch_boundaries": ("analysis", None, "branch_boundaries"),
    "analysis.itinerary_semiconjugacy": ("analysis", None, "itinerary_semiconjugacy"),
    "analysis.classify_attractor": ("analysis", None, "classify_attractor"),
    "experiments.mu_sweep": ("experiments", None, "mu_sweep"),
    "experiments.fit_period_scaling": ("experiments", None, "fit_period_scaling"),
    "experiments.threshold_study": ("experiments", None, "threshold_study"),
    "cli.main": ("cli", None, "main"),
}

MODULES = sorted({module for module, _, _ in TRACED.values()})

# extra counts: (name, unit); all are per traced round in the report
COUNTS = (
    ("model.rescaled_step.points", "count"),
    ("model.rescaled_step.jacobian_points", "count"),
    ("model.rescaled_step.jacobian_bytes", "B_computed"),
    ("model.trapping_samples.points", "count"),
    ("conditions.check_case.grid_points", "count"),
    ("conditions.check_case.inconclusive", "count"),
    ("analysis.find_fixed_point.newton_iterations", "count"),
    ("analysis.graph_transform_curve.iterations", "count"),
    ("analysis.lyapunov_spectrum.returns", "count"),
    ("analysis.itinerary_semiconjugacy.samples", "count"),
    ("analysis.itinerary_semiconjugacy.resampled", "count"),
    ("experiments.mu_sweep.records", "count"),
    ("cli.main.csv_bytes", "B"),
)


def _arg(args, kwargs, position, name, default):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _size(value) -> int:
    return int(getattr(value, "size", 1))


def _rescaled_step(counts, args, kwargs, result, exc):
    # (self, X, Y, theta, mu, with_jacobian=False)
    points = max(_size(_arg(args, kwargs, 1, "X", 0.0)), _size(_arg(args, kwargs, 3, "theta", 0.0)))
    counts["model.rescaled_step.points"] += points
    if _arg(args, kwargs, 5, "with_jacobian", False):
        n = args[0].n
        counts["model.rescaled_step.jacobian_points"] += points
        counts["model.rescaled_step.jacobian_bytes"] += points * n * n * 8


def _trapping_samples(counts, args, kwargs, result, exc):
    if result is not None:
        counts["model.trapping_samples.points"] += int(result[0].size)


def _check_case(counts, args, kwargs, result, exc):
    # the grid starts at max(8, grid_size) and doubles up to the reported size
    start = max(8, int(_arg(args, kwargs, 2, "grid_size", 4096)))
    final = getattr(result if exc is None else exc, "grid_size", None)
    if final is not None:
        counts["conditions.check_case.grid_points"] += 2 * int(final) - start
    if type(exc).__name__ == "Inconclusive":
        counts["conditions.check_case.inconclusive"] += 1


def _find_fixed_point(counts, args, kwargs, result, exc):
    if result is not None:
        counts["analysis.find_fixed_point.newton_iterations"] += result.newton_iterations


def _lyapunov_spectrum(counts, args, kwargs, result, exc):
    if result is not None:
        counts["analysis.lyapunov_spectrum.returns"] += (
            result.orbit_length + result.transient_discarded)


def _itinerary(counts, args, kwargs, result, exc):
    if result is not None:
        counts["analysis.itinerary_semiconjugacy.samples"] += result.samples
        counts["analysis.itinerary_semiconjugacy.resampled"] += result.resampled


def _mu_sweep(counts, args, kwargs, result, exc):
    if result is not None:
        counts["experiments.mu_sweep.records"] += len(result)


def _cli_main(counts, args, kwargs, result, exc):
    argv = list(_arg(args, kwargs, 0, "argv", None) or ())
    if argv and argv[0] == "sweep":
        out = argv[argv.index("--out") + 1] if "--out" in argv else "."
        path = os.path.join(out, "sweep.csv")
        if os.path.exists(path):
            counts["cli.main.csv_bytes"] += os.path.getsize(path)


HOOKS = {
    "model.rescaled_step": _rescaled_step,
    "model.trapping_samples": _trapping_samples,
    "conditions.check_case": _check_case,
    "analysis.find_fixed_point": _find_fixed_point,
    "analysis.lyapunov_spectrum": _lyapunov_spectrum,
    "analysis.itinerary_semiconjugacy": _itinerary,
    "experiments.mu_sweep": _mu_sweep,
    "cli.main": _cli_main,
}

# child-span counts reported as a count of the parent: (parent, child) -> name
CHILD_COUNTS = {
    ("analysis.graph_transform_curve", "model.rescaled_step"):
        "analysis.graph_transform_curve.iterations",
}


class Tracer:
    """In-memory span recorder for the traced functions of blueskylab."""

    def __init__(self):
        self.names = list(TRACED)
        self.spans: list[tuple[int, int, float, float]] = []   # (name, parent, start, end)
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._child_time: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self, package) -> "Tracer":
        """Wrap every traced function of ``package`` (the imported blueskylab);
        use as ``with tracer.install(bsl):`` to put the originals back after."""
        modules = {name: importlib.import_module(f"{package.__name__}.{name}") for name in MODULES}
        for index, (qual, (mod_name, cls_name, attr)) in enumerate(TRACED.items()):
            module = modules[mod_name]
            owner = getattr(module, cls_name) if cls_name else module
            original = owner.__dict__[attr] if cls_name else getattr(module, attr)
            wrapper = self._wrap(index, qual, original)
            if cls_name:
                for key, value in list(vars(owner).items()):
                    if value is original:          # e.g. FourierSeries.__call__ = eval
                        self._patch(owner, key, wrapper)
            else:
                for mod in [package, *modules.values()]:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
        return self

    def _patch(self, owner, key, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.uninstall()

    # -- recording ---------------------------------------------------------

    def _wrap(self, index: int, qual: str, fn):
        hook = HOOKS.get(qual)
        spans, stack, child_time = self.spans, self._stack, self._child_time
        calls, self_s, counts = self.calls, self.self_s, self.counts
        names = self.names

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append((index, parent, 0.0, 0.0))
            stack.append(slot)
            child_time.append(0.0)
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = perf_counter()
                duration = end - start
                spans[slot] = (index, parent, start, end)
                stack.pop()
                self_s[qual] += duration - child_time.pop()
                calls[qual] += 1
                if child_time:
                    child_time[-1] += duration
                if parent >= 0:
                    key = CHILD_COUNTS.get((names[spans[parent][0]], qual))
                    if key:
                        counts[key] += 1
                if hook is not None:
                    hook(counts, args, kwargs, result, exc)

        return wrapper

    # -- reporting ---------------------------------------------------------

    def covered_s(self) -> float:
        """Total duration of root spans (equal to the sum of all self times)."""
        return sum(end - start for _, parent, start, end in self.spans if parent < 0)

    def write(self, path) -> None:
        """Write every span as [name index, parent span index, start, end]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)
