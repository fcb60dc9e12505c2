"""Compare two result files of the benchmark, workload by workload.

Usage: python3 benchmark/compare.py PARENT.jsonl CHANGE.jsonl

A result file holds one JSON record per run, as ``run.py --out`` appends
them; run each side on the same seeds (ten or more).  For every workload
and every end-to-end metric of BENCHMARK.json the verdict is:

  unresolved  the parent's run-to-run spread (quartile distance over the
              median) exceeds the metric's bound, and not every run of the
              change beats every run of the parent;
  regression  the change's median is worse than the parent's by more
              than the bound;
  improved    the change wins at least nine tenths of the runs paired by
              seed, and the medians differ by more than the parent's spread;
  unchanged   otherwise.

The per-op detail metrics (e.g. ``curve_s``) are listed with their medians
and change but have no bound, so no verdict.  Exits 1 if any metric
regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def spread(values: list[float]) -> float:
    """Quartile distance over the median; infinite with fewer than two runs."""
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def series(records, workload: str, metric: str) -> dict[int, float]:
    """Value of ``metric`` per seed, from untraced runs of ``workload``."""
    out = {}
    for r in records:
        if r["workload"] != workload or r["trace"]:
            continue
        metrics = r["result"]["metrics"]
        if metric in metrics:
            out[r["seed"]] = metrics[metric]["value"]
        elif metric in r.get("detail", {}):
            out[r["seed"]] = r["detail"][metric]
    return out


def verdict(base: dict[int, float], new: dict[int, float], bound: float, better: str) -> dict:
    sign = 1.0 if better == "lower" else -1.0
    b, n = list(base.values()), list(new.values())
    mb, mn = statistics.median(b), statistics.median(n)
    worse = sign * (mn - mb) / abs(mb)          # > 0: the change is worse
    s = spread(b)
    all_better = all(sign * (x - y) < 0.0 for x in n for y in b)
    seeds = sorted(set(base) & set(new))
    pairs = [(base[k], new[k]) for k in seeds] or list(zip(b, n))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0.0)
    if s > bound and not all_better:
        status = "unresolved"
    elif worse > bound:
        status = "regression"
    elif -worse > s and wins >= 0.9 * len(pairs):
        status = "improved"
    else:
        status = "unchanged"
    return {"status": status, "parent": mb, "change": mn, "worse_by": worse,
            "parent_spread": s, "wins": wins, "pairs": len(pairs)}


def compare(base_records, new_records, spec: dict) -> list[dict]:
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for m in spec["end_to_end"]:
            b = series(base_records, workload, m["name"])
            n = series(new_records, workload, m["name"])
            if b and n:
                rows.append({"workload": workload, "metric": m["name"], "unit": m["unit"],
                             **verdict(b, n, m["bound"], m["better"])})
        details = {k for r in base_records if r["workload"] == workload and not r["trace"]
                   for k in r.get("detail", {}) if k != "rounds"}
        for name in sorted(details):
            b = series(base_records, workload, name)
            n = series(new_records, workload, name)
            if b and n:
                better = "higher" if name.endswith("_per_s") else "lower"
                row = verdict(b, n, float("inf"), better)
                row["status"] = "info"
                rows.append({"workload": workload, "metric": name, "unit": "detail", **row})
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = compare(load(argv[0]), load(argv[1]), spec)
    for r in rows:
        print(f"{r['workload']:<14} {r['metric']:<28} {r['status']:<11} "
              f"parent {r['parent']:.6g}  change {r['change']:.6g} {r['unit']}  "
              f"worse by {100 * r['worse_by']:+.2f}%  spread {100 * r['parent_spread']:.2f}%  "
              f"wins {r['wins']}/{r['pairs']}")
    return 1 if any(r["status"] == "regression" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
