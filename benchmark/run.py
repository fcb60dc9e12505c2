"""Benchmark of blueskylab: one workload per degree regime.

One workload, as one run (prints the result as the last line of stdout):

    python3 benchmark/run.py --workload solenoid --seed 1 --seconds 30 --trace 0

Every workload, each in its own fresh worker process, untraced and then
traced, with a table of every metric:

    python3 benchmark/run.py [--seed 1] [--seconds 30] [--out results.jsonl]

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run (see
README.md).  Correctness is checked outside the timed regions.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "_runs"
BLAS_THREADS = "1"
SETUP_PROBES = 5
# amount of work per op kind, for the rate metrics
WORK_UNITS = {"sweep": "points", "lyapunov": "returns"}


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    path = ROOT / ".git" / name
    if path.exists():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def environment() -> dict:
    import importlib.util

    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cocycle_backend": "numba" if importlib.util.find_spec("numba") else "python (no numba)",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "git_sha": git_sha(),
    }


def setup_seconds(config_paths) -> list[float]:
    """Fresh processes that import blueskylab and load every config, timed to ``ready``."""
    times = []
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), *map(str, config_paths)]
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed: {line!r}")
        times.append(elapsed)
    return times


def run_round(ops) -> dict:
    """Run one round; returns per-op timings and outputs, and the failures."""
    timings, outputs, failed = [], {}, []
    for op in ops:
        try:
            with redirect_stdout(io.StringIO()):
                start = perf_counter()
                value = op.run()
                elapsed = perf_counter() - start
            output, work = op.collect(value) if op.collect else (value, 1)
        except Exception:
            failed.append((op.label, traceback.format_exc()))
            continue
        timings.append((op.kind, elapsed, work))
        outputs[op.label] = output
    return {"wall": sum(t for _, t, _ in timings), "timings": timings,
            "outputs": outputs, "failed": failed, "attempted": len(ops)}


def fingerprint_text(workload, outputs) -> str:
    return json.dumps(workload.fingerprint(outputs), sort_keys=True, default=repr)


def measure(workload, bsl, seconds: float, keep_first: bool) -> list[dict]:
    """Whole rounds until ``seconds`` have passed (at least one).  Every round
    keeps a fingerprint of its outputs; only the first, if ``keep_first``,
    keeps the outputs themselves (for the checks), so that memory does not
    grow with the number of rounds."""
    rounds = []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        r = run_round(workload.ops(bsl))
        r["fingerprint"] = None if r["failed"] else fingerprint_text(workload, r["outputs"])
        if rounds or not keep_first:
            r["outputs"] = None
        rounds.append(r)
    return rounds


def detail_metrics(rounds) -> dict:
    """Per op kind: median seconds per op, and work per second where it has a unit."""
    by_kind: dict[str, list] = {}
    for r in rounds:
        for kind, elapsed, work in r["timings"]:
            by_kind.setdefault(kind, []).append((elapsed, work))
    out = {}
    for kind, items in by_kind.items():
        out[f"{kind}_s"] = statistics.median(t for t, _ in items)
        if kind in WORK_UNITS:
            out[f"{kind}_{WORK_UNITS[kind]}_per_s"] = sum(w for _, w in items) / sum(t for t, _ in items)
    return out


def layer_metrics(tracer, traced_rounds, untraced_wall: float) -> tuple[dict, dict]:
    """Per-layer metrics (per traced round) and the absolute self times."""
    from spans import COUNTS, TRACED

    n = len(traced_rounds)
    traced_wall = statistics.median(r["wall"] for r in traced_rounds)
    total = sum(r["wall"] for r in traced_rounds)
    metrics = {
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_pct": (100.0 * (traced_wall - untraced_wall) / untraced_wall, "%"),
    }
    for name in TRACED:
        metrics[f"{name}.calls"] = (tracer.calls[name] / n, "count")
        metrics[f"{name}.self_pct"] = (100.0 * tracer.self_s[name] / total, "%")
    for name, unit in COUNTS:
        metrics[name] = (tracer.counts[name] / n, unit)
    calls = tracer.calls["model.rescaled_step"]
    metrics["model.rescaled_step.points_per_call"] = (
        tracer.counts["model.rescaled_step.points"] / calls if calls else 0.0, "count")
    absolute = {f"{name}.self_s": tracer.self_s[name] / n for name in TRACED}
    returns = tracer.counts["analysis.lyapunov_spectrum.returns"]
    if returns:
        absolute["analysis.lyapunov_spectrum.us_per_return"] = (
            1e6 * tracer.self_s["analysis.lyapunov_spectrum"] / returns)
    absolute["trace.overhead_s"] = traced_wall - untraced_wall
    absolute["trace.covered_pct"] = 100.0 * tracer.covered_s() / total
    return metrics, absolute


def worker(args) -> int:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    from spans import Tracer
    from workloads import WORKLOADS

    run_dir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    workload = WORKLOADS[args.workload](args.seed, run_dir, ROOT)

    setup = None if args.trace else setup_seconds(workload.configs.values())
    import blueskylab as bsl
    import blueskylab.cli  # noqa: F401  (bsl.cli for the CLI operations)

    if args.trace:
        untraced = measure(workload, bsl, args.seconds / 2.0, keep_first=True)
        tracer = Tracer()
        with tracer.install(bsl):
            traced = measure(workload, bsl, args.seconds / 2.0, keep_first=False)
        rounds = untraced + traced
    else:
        untraced = rounds = measure(workload, bsl, args.seconds, keep_first=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(r["attempted"] for r in rounds)
    failures = [f for r in rounds for f in r["failed"]]
    for label, text in failures:
        print(f"operation {label} failed:\n{text}", file=sys.stderr)
    try:
        problems = workload.check(bsl, rounds[0]["outputs"])
    except Exception:
        problems = [f"check raised:\n{traceback.format_exc()}"]
    for i, r in enumerate(rounds[1:], start=1):
        if r["fingerprint"] is not None and r["fingerprint"] != rounds[0]["fingerprint"]:
            problems.append(f"round {i} outputs differ from round 0")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    untraced_wall = statistics.median(r["wall"] for r in untraced)
    detail = detail_metrics(untraced)
    detail["rounds"] = len(rounds)
    if args.trace:
        metrics, absolute = layer_metrics(tracer, traced, untraced_wall)
        detail.update(absolute)
        tracer.write(run_dir / "spans.json")
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (untraced_wall, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    env = environment()
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": env, "detail": detail, "result": result}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print("env " + json.dumps(env, sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


def orchestrate(args) -> int:
    """Every workload in a fresh worker process, untraced then traced."""
    out = Path(args.out) if args.out else RUNS / "results.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    status = 0
    for workload in (w["name"] for w in spec()["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--out", str(out)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} (trace {trace}): worker exited with {proc.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            detail = json.loads(lines[-2].partition(" ")[2])
            status |= 0 if result["correct"] and not result["failed"] else 1
            print(f"== {workload}  trace={trace}  correct={result['correct']}  "
                  f"attempted={result['attempted']}  failed={result['failed']}")
            for name, m in result["metrics"].items():
                if trace and name.endswith((".calls", ".self_pct")) and m["value"] == 0:
                    continue    # layers the workload does not reach
                print(f"   {name:<48} {m['value']:>14.6g} {m['unit']}")
            if not trace:
                for name, value in sorted(detail.items()):
                    unit = "1/s" if name.endswith("_per_s") else "s" if name.endswith("_s") else "count"
                    print(f"   {name:<48} {value:>14.6g} {unit} (detail)")
    print(f"results appended to {out}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (omit to run all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append a JSON record of each run to this file")
    args = parser.parse_args(argv)

    if not (SRC / "blueskylab" / "__init__.py").exists() or not (ROOT / "configs").is_dir():
        print(f"error: no blueskylab sources under {SRC} (and configs/ beside them)",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec()["run_seconds"])
    if args.workload is None:
        return orchestrate(args)
    names = [w["name"] for w in spec()["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    return worker(args)


if __name__ == "__main__":
    sys.exit(main())
