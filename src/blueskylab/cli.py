"""Command-line front end: validate, classify, sweep, certify.

Exit codes: 0 success; 1 domain failure (invalid model, escaped orbit,
false certificate, all records escaped); 2 usage or parse error; 3
undecided (an inconclusive condition or certificate, a solver that did not
converge, an indeterminate classification).  ``main`` maps exceptions to
these codes with one table, ``EXIT_CODES``.  Nothing is random, and CSV
floats use the shortest round-trip representation, so identical arguments
produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .analysis import AttractorLabel, classify_attractor, cone_certify
from .experiments import (
    InsufficientData,
    fit_period_scaling,
    geometric_mu_grid,
    mu_sweep,
    write_sweep_csv,
)
from .model import (
    DomainError,
    InvalidModel,
    Undecided,
    ValidatedModel,
    parse_config,
    require_mu,
    validate_config,
)

__all__ = ["EXIT_CODES", "cmd_certify", "cmd_classify", "cmd_sweep",
           "cmd_validate", "main"]

# exception class -> exit code and stderr prefix; the first match wins, and
# any other exception propagates
EXIT_CODES = (
    (Undecided, 3, "undecided"),
    (DomainError, 1, "error"),
    (ValueError, 2, "usage error"),
)


def _parse_override_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def apply_overrides(data: dict, overrides: list[str]) -> dict:
    """Apply ``key=value`` overrides with dotted paths into the config mapping.

    Values parse as JSON (numbers, lists, objects) with bare-string
    fallback; integer path segments index lists, and an index equal to the
    list length appends.
    """
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not of the form key=value")
        path, _, raw = item.partition("=")
        keys = path.strip().split(".")
        value = _parse_override_value(raw.strip())
        node = data
        for i, key in enumerate(keys):
            last = i == len(keys) - 1
            if isinstance(node, list):
                idx = int(key)
                if idx == len(node) and last:
                    node.append(None)
                if not 0 <= idx < len(node):
                    raise ValueError(f"override {item!r}: index {idx} out of range")
                if last:
                    node[idx] = value
                else:
                    node = node[idx]
            elif isinstance(node, dict):
                if last:
                    node[key] = value
                else:
                    if key not in node:
                        raise ValueError(f"override {item!r}: unknown key {key!r}")
                    node = node[key]
            else:
                raise ValueError(f"override {item!r}: cannot descend into {type(node).__name__}")
    return data


def _load_model(args: argparse.Namespace) -> ValidatedModel:
    """Read, override, parse and validate the config.  An unreadable or
    malformed file raises ValueError; a rule violation, InvalidModel."""
    path = Path(args.config)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed config {path}: {exc}") from exc
    apply_overrides(data, args.overrides)
    return validate_config(parse_config(data))


def _write_json(out_dir: str | None, name: str, payload: dict) -> None:
    if out_dir is None:
        return
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / name, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_validate(args: argparse.Namespace) -> int:
    """Exit 0 iff the config satisfies every model-family rule."""
    try:
        model = _load_model(args)
    except InvalidModel as exc:
        print("invalid model; violated rules:")
        for name in exc.violations:
            print(f"  {name}")
        return 1
    print(f"valid, nu={model.nu:.3f}")
    return 0


def _format_interval(interval) -> str:
    if interval is None:
        return "(empty)"
    low, high = interval
    high_txt = "inf" if np.isinf(high) else f"{high:.6g}"
    return f"({low:.6g}, {high_txt})"


def cmd_classify(args: argparse.Namespace) -> int:
    """Classify the attractor at ``--mu``; exit 3 when indeterminate."""
    require_mu(args.mu)
    record = classify_attractor(_load_model(args), args.mu)
    print(record.label.value)
    if record.condition is not None:
        cond = record.condition
        print(f"condition {cond.case_tag.value}: verdict={cond.verdict} "
              f"margin={cond.margin:.6g} grid={cond.grid_size}")
    if record.fixed_point is not None:
        fp = record.fixed_point
        moduli = np.abs(fp.multipliers)
        print(f"fixed point: theta={fp.point.theta:.6f} X={fp.point.X:.6f} "
              f"residual={fp.residual:.3e} max|multiplier|={float(np.max(moduli)):.3e}")
    if record.curve is not None:
        print(f"invariant curve: residual_sup={record.curve.residual_sup:.3e} "
              f"orientation={record.curve.orientation.value}")
    if record.certificate is not None:
        print(f"cone certificate: verdict={record.certificate.verdict} "
              f"L_interval={_format_interval(record.certificate.L_interval)}")
    if record.reason:
        print(f"reason: {record.reason}")
    _write_json(args.out, "classification.json", record.to_dict())
    return 0 if record.label is not AttractorLabel.INDETERMINATE else 3


def cmd_sweep(args: argparse.Namespace) -> int:
    """Sweep mu, write the CSV and the scaling fit; exit 1 if all escaped."""
    mus = geometric_mu_grid(args.mu_min, args.mu_max, args.per_decade)
    model = _load_model(args)
    records = mu_sweep(model, mus)
    out_dir = Path(args.out) if args.out else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "sweep.csv"
    write_sweep_csv(records, csv_path)
    print(f"wrote {csv_path} ({len(records)} records)")
    if all(r.escape_flag for r in records):
        print("error: every record escaped", file=sys.stderr)
        return 1
    try:
        fit = fit_period_scaling(records)
    except InsufficientData as exc:  # the fit is advisory outside the stable-orbit regime
        print(f"no period-scaling fit: {exc}")
        return 0
    _write_json(str(out_dir), "scaling_fit.json", fit.to_dict())
    print(f"period scaling: fitted slope={fit.slope:.6f}  1/gamma={1.0 / model.gamma:.6f}  "
          f"r2={fit.r_squared:.8f}")
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    """Write the cone certificate; exit 0 iff the verdict is true."""
    require_mu(args.mu)
    cert = cone_certify(_load_model(args), args.mu, args.grid)
    print(f"verdict: {cert.verdict}")
    print(f"L_interval: {_format_interval(cert.L_interval)}")
    print(f"certified angular expansion >= {cert.expansion_lower_bound:.6g}")
    _write_json(args.out, "certificate.json", cert.to_dict())
    return 0 if cert.verdict else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blueskylab",
        description="Return-map laboratory for homoclinic saddle-node bifurcations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run):
        p.set_defaults(run=run)
        p.add_argument("config", help="model configuration file (JSON)")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config entry (repeatable)")
        p.add_argument("--out", dest="out", default=None, help="output directory")

    p = sub.add_parser("validate", help="check the model-family rules")
    common(p, cmd_validate)

    p = sub.add_parser("classify", help="classify the attractor at one mu")
    common(p, cmd_classify)
    p.add_argument("--mu", type=float, required=True)

    p = sub.add_parser("sweep", help="classify along a mu grid and fit the period scaling")
    common(p, cmd_sweep)
    p.add_argument("--mu-min", type=float, required=True)
    p.add_argument("--mu-max", type=float, required=True)
    p.add_argument("--per-decade", type=int, default=10)

    p = sub.add_parser("certify", help="cone-condition hyperbolicity certificate (|m| >= 2)")
    common(p, cmd_certify)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--grid", type=int, default=256, help="angular sample count")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (DomainError, ValueError) as exc:
        code, prefix = next((code, prefix) for cls, code, prefix in EXIT_CODES
                            if isinstance(exc, cls))
        print(f"{prefix}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
