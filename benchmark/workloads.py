"""The benchmark's workloads, one per degree regime of the trichotomy.

Each workload makes its inputs from the seed (config files, mu grids, the
itinerary ``rng_seed``), lists the operations of one round, and checks a
round's outputs against the independent reference map in ``reference.py``
and against properties of the method.  The program receives only the
generated inputs.  Every function of blueskylab is reached through module
attributes at call time, so a tracer installed later sees the calls.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from reference import ReferenceMap, circle_distance

TWO_PI = 2.0 * math.pi


class OpFailed(RuntimeError):
    """An operation returned a failure status (e.g. a non-zero CLI exit code)."""


@dataclass
class Op:
    """One timed call.  ``collect`` turns the raw return value into the
    stored output and its amount of work (points, returns) outside the
    timed region; without it the output is the return value, one unit."""

    kind: str
    label: str
    run: Callable[[], Any]
    collect: Callable[[Any], tuple[Any, int]] | None = None


def series(constant=0.0, cos=(), sin=()) -> dict:
    return {"constant": float(constant), "cos": [float(a) for a in cos],
            "sin": [float(b) for b in sin]}


def config(m, gamma, lam, beta, d, n, alpha, h, fx, hx, fy, hy, g0) -> dict:
    return {"m": m, "gamma": float(gamma), "lambda": float(lam), "beta": float(beta),
            "d": float(d), "n": n, "alpha": alpha, "h": h, "coupling_fx": fx,
            "coupling_hx": hx, "coupling_fy": fy, "coupling_hy": hy, "g0": g0}


def uncoupled(m, n, gamma, lam, beta, d, h) -> dict:
    """Every coupling and g0 identically zero, alpha = 1."""
    k = n - 2
    return config(m, gamma, lam, beta, d, n, series(1.0), h, series(), series(),
                  [series()] * k, [series()] * k, [series()] * k)


def read_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def with_returns(spectrum):
    """A Lyapunov spectrum and its work: every return taken, transient included."""
    return spectrum, spectrum.orbit_length + spectrum.transient_discarded


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


class Workload:
    """Inputs, one round of operations and the checks of one workload."""

    name = ""

    def __init__(self, seed: int, run_dir: Path, root: Path):
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)
        self.run_dir = Path(run_dir)
        self.root = Path(root)
        self.config_dir = self.run_dir / "configs"
        self.config_dir.mkdir(parents=True, exist_ok=True)
        self.configs: dict[str, Path] = {}
        self.models: dict[str, Any] = {}

    def add_config(self, name: str, data: dict) -> None:
        path = self.config_dir / f"{name}.json"
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        self.configs[name] = path

    def add_demo(self, name: str) -> None:
        self.configs[name] = self.root / "configs" / f"{name}.json"

    def config_data(self, name: str) -> dict:
        return json.loads(self.configs[name].read_text(encoding="utf-8"))

    def load_op(self, bsl) -> Op:
        """Load and validate every config of the workload (the first op of a round)."""
        def run():
            return {name: bsl.load_model(path) for name, path in self.configs.items()}

        def collect(models):
            self.models = models
            return sorted(models), len(models)
        return Op("load", "load", run, collect)

    def sweep_op(self, bsl, label: str, config_name: str, mu_min: float, mu_max: float,
                 per_decade: int) -> Op:
        out = self.run_dir / "sweeps" / label
        argv = ["sweep", str(self.configs[config_name]), "--mu-min", repr(mu_min),
                "--mu-max", repr(mu_max), "--per-decade", str(per_decade), "--out", str(out)]

        def collect(code):
            if code != 0:
                raise OpFailed(f"sweep {label} exited with code {code}")
            text = (out / "sweep.csv").read_text(encoding="utf-8")
            fit = out / "scaling_fit.json"
            fit_text = fit.read_text(encoding="utf-8") if fit.exists() else None
            rows = read_csv(text)
            return {"argv": argv, "csv": text, "rows": rows, "fit": fit_text}, len(rows)
        return Op("sweep", label, lambda: bsl.cli.main(argv), collect)

    def ops(self, bsl) -> list[Op]:
        raise NotImplementedError

    def check(self, bsl, out: dict) -> list[str]:
        raise NotImplementedError

    def fingerprint(self, out: dict) -> dict:
        """What must repeat exactly from round to round."""
        raise NotImplementedError


# ---------------------------------------------------------------------------


class BlueskySweep(Workload):
    """m = 0: many small calls (condition checks, Newton, single-point steps)."""

    name = "bluesky-sweep"

    PER_DECADE = 20
    DECADES = 5
    GAMMAS = (0.7, 1.0, 1.3)

    def __init__(self, seed, run_dir, root):
        super().__init__(seed, run_dir, root)
        rng = self.rng
        self.add_demo("demo_m0")
        g = rng.uniform(0.8, 1.25)
        lam = g * rng.uniform(1.7, 2.3)
        self.add_config("uncoupled_m0", uncoupled(
            0, 3, g, lam, lam * rng.uniform(1.5, 1.9), rng.uniform(0.8, 1.25),
            series(sin=[rng.uniform(0.1, 0.3)])))
        for i, base in enumerate(self.GAMMAS):
            g = base * rng.uniform(0.97, 1.03)
            s = 1e-3 * rng.uniform(0.8, 1.2)
            self.add_config(f"coupled_m0_{i}", config(
                0, g, 2.0 * g, 3.6 * g, 1.0, 3,
                series(1.0, cos=[0.15]), series(sin=[0.1]),
                series(s, cos=[s]), series(sin=[s / 2]),
                [series(s, sin=[s])], [series(s, cos=[s / 2])], [series(0.1, cos=[0.05])]))
        self.sweeps = {}
        for name in self.configs:
            mu_min = 10.0 ** (-8.0 + rng.uniform(-0.2, 0.2))
            self.sweeps[f"sweep_{name}"] = (name, mu_min, mu_min * 10.0 ** self.DECADES)
        # the threshold families have constant alpha, so the flips sit at a = 1
        # exactly; the bisection bracket is fixed because the certified grid
        # near the flip (and so the cost) depends on where the bisection lands
        self.families = {
            "threshold_blue_sky": (0, 3, rng.uniform(0.8, 1.25)),
            "threshold_solenoid": (2, 4, rng.uniform(0.8, 1.25)),
        }

    def family(self, bsl, m, n, gamma):
        def build(a):
            data = uncoupled(m, n, gamma, 1.7 * gamma, 3.0 * gamma, 1.0, series(sin=[a]))
            return bsl.validate_config(bsl.parse_config(data))
        return build

    def ops(self, bsl):
        ops = [self.load_op(bsl)]
        for label, (name, lo, hi) in self.sweeps.items():
            ops.append(self.sweep_op(bsl, label, name, lo, hi, self.PER_DECADE))
        for label, (m, n, gamma) in self.families.items():
            tag = bsl.CaseTag.BLUE_SKY if m == 0 else bsl.CaseTag.SOLENOID
            family = self.family(bsl, m, n, gamma)
            ops.append(Op("threshold", label,
                          lambda family=family, tag=tag: bsl.threshold_study(family, tag, [0.5, 1.5])))
        return ops

    def check(self, bsl, out):
        problems = []
        rng = np.random.default_rng([self.seed, 1])
        for label, (name, _, _) in self.sweeps.items():
            sweep = out[label]
            cfg = self.config_data(name)
            gamma = cfg["gamma"]
            rows = sweep["rows"]
            expected = int(round(self.DECADES * self.PER_DECADE)) + 1
            if len(rows) != expected:
                problems.append(f"{label}: {len(rows)} rows, expected {expected}")
            for row in rows:
                if row["classification"] != "StablePeriodicOrbit" or row["escaped"] != "false" \
                        or not float(row["top_lyapunov"]) < 0.0:
                    problems.append(f"{label}: row {row} is not a stable, unescaped orbit")
                    break
            if name.startswith("uncoupled"):
                worst = max(abs(float(r["period_proxy"])
                                - (math.log(cfg["d"] / float(r["mu"])) / gamma + 1.0)) for r in rows)
                if worst > 1e-9:
                    problems.append(f"{label}: period proxy off ln(d/mu)/gamma + 1 by {worst:.3e}")
            else:
                fit = json.loads(sweep["fit"])
                if abs(fit["slope"] - 1.0 / gamma) > 0.02 / gamma:
                    problems.append(f"{label}: fitted slope {fit['slope']} vs 1/gamma {1 / gamma}")
            for i in rng.choice(len(rows), size=6, replace=False):
                row = rows[int(i)]
                ref = ReferenceMap(cfg, float(row["mu"])).fixed_point_angle()
                if circle_distance(ref, float(row["theta_fixed"])) > 1e-9:
                    problems.append(f"{label}: theta_fixed {row['theta_fixed']} vs reference {ref!r}")
        # a second CLI run of the same sweep gives a byte-identical CSV
        label = next(iter(self.sweeps))
        argv = list(out[label]["argv"])
        again = self.run_dir / "sweeps" / "determinism"
        argv[argv.index("--out") + 1] = str(again)
        with redirect_stdout(io.StringIO()):
            code = bsl.cli.main(argv)
        if code != 0 or (again / "sweep.csv").read_text(encoding="utf-8") != out[label]["csv"]:
            problems.append(f"{label}: a second CLI run did not reproduce sweep.csv byte for byte")
        for label in self.families:
            flip = out[label].flip
            if flip is None or abs(flip - 1.0) > 1e-6:
                problems.append(f"{label}: flip {flip} is not at the analytic value 1")
        return problems

    def fingerprint(self, out):
        fp = {label: [out[label]["csv"], out[label]["fit"]] for label in self.sweeps}
        fp.update({label: [out[label].flip, out[label].bracket] for label in self.families})
        return fp


# ---------------------------------------------------------------------------


class TorusKlein(Workload):
    """|m| = 1: a few large-array calls (graph transforms at 2^16 and 2^17 nodes)."""

    name = "torus-klein"

    GRIDS = (2 ** 16, 2 ** 17)
    # one mu per band of log10(mu), so every seed spans [1e-6, 1e-2] alike; the
    # bands avoid log10(mu) near -2.35 (demo_m1) and -1.98 (demo_m-1), where the
    # graph transform needs one more iteration, so every seed costs the same
    BANDS = ((-6.0, -5.3), (-4.35, -3.65), (-2.25, -2.05))

    def __init__(self, seed, run_dir, root):
        super().__init__(seed, run_dir, root)
        for name in ("demo_m1", "demo_m-1"):
            self.add_demo(name)
        self.mus = {name: [10.0 ** self.rng.uniform(lo, hi) for lo, hi in self.BANDS]
                    for name in self.configs}

    def ops(self, bsl):
        ops = [self.load_op(bsl)]
        for name in self.configs:
            for i, mu in enumerate(self.mus[name]):
                for grid in self.GRIDS:
                    ops.append(Op("curve", f"curve_{name}_{i}_{grid}",
                                  lambda name=name, mu=mu, grid=grid: bsl.graph_transform_curve(
                                      self.models[name], mu, grid_size=grid)))
            mu = self.mus[name][1]
            ops.append(Op("classify", f"classify_{name}",
                          lambda name=name, mu=mu: bsl.classify_attractor(self.models[name], mu)))
            ops.append(Op("degree", f"degree_{name}",
                          lambda name=name, mu=mu: bsl.circle_degree(self.models[name], mu)))
        return ops

    def curve_problems(self, label, cfg, mu, curve, rng) -> list[str]:
        problems = []
        m = int(cfg["m"])
        expected = "Preserving" if m == 1 else "Reversing"
        if curve.orientation.value != expected:
            problems.append(f"{label}: orientation {curve.orientation.value}, expected {expected}")
        ref = ReferenceMap(cfg, mu)
        worst = 0.0
        for i in rng.choice(len(curve.theta_grid), size=64, replace=False):
            X, Y, lift = ref.step(curve.X[i], curve.Y[i], curve.theta_grid[i])
            on = curve.radial_at(lift)
            worst = max(worst, math.sqrt((X - on[0]) ** 2 + sum((a - b) ** 2 for a, b in zip(Y, on[1:]))))
        if worst > 1e-7:
            problems.append(f"{label}: mapped nodes miss the curve by {worst:.3e}")
        worst = 0.0
        for theta in rng.uniform(0.0, TWO_PI, 16):
            X0 = ref.limit_radial(theta) * (1.0 + 0.01 * rng.uniform(-1.0, 1.0))
            Y0 = 0.01 * rng.uniform(-1.0, 1.0, ref.k)
            X, Y, th = ref.orbit(X0, Y0, theta, 300)
            on = curve.radial_at(th)
            worst = max(worst, math.sqrt((X - on[0]) ** 2 + sum((a - b) ** 2 for a, b in zip(Y, on[1:]))))
        if worst > 1e-6:
            problems.append(f"{label}: reference orbits end {worst:.3e} from the curve")
        return problems

    def check(self, bsl, out):
        problems = []
        rng = np.random.default_rng([self.seed, 2])
        for name in self.configs:
            cfg = self.config_data(name)
            m = int(cfg["m"])
            for i, mu in enumerate(self.mus[name]):
                for grid in self.GRIDS:
                    label = f"curve_{name}_{i}_{grid}"
                    problems += self.curve_problems(label, cfg, mu, out[label], rng)
            record = out[f"classify_{name}"]
            expected = "InvariantTorus" if m == 1 else "KleinBottle"
            if record.label.value != expected:
                problems.append(f"classify_{name}: {record.label.value}, expected {expected}")
            else:
                problems += self.curve_problems(f"classify_{name}", cfg, self.mus[name][1],
                                                record.curve, rng)
            if out[f"degree_{name}"] != m:
                problems.append(f"degree_{name}: circle_degree {out[f'degree_{name}']} != m = {m}")
        return problems

    def fingerprint(self, out):
        fp = {}
        for label, value in out.items():
            if label.startswith("curve_"):
                fp[label] = digest(value.radial_values, [value.residual_sup])
            elif label.startswith("classify_"):
                fp[label] = [value.label.value, digest(value.curve.radial_values)]
            elif label.startswith("degree_"):
                fp[label] = value
        return fp


# ---------------------------------------------------------------------------


class Solenoid(Workload):
    """|m| = 2: the Lyapunov cocycle, cone certificates at n = 4 and 7, itineraries."""

    name = "solenoid"

    LYAPUNOV_ITERATIONS = 10 ** 5
    LYAPUNOV_TRANSIENT = 2000
    HIGH_N = 7

    def __init__(self, seed, run_dir, root):
        super().__init__(seed, run_dir, root)
        rng = self.rng
        self.add_demo("demo_m2")
        g = rng.uniform(0.8, 1.25)
        self.add_config("uncoupled_m2", uncoupled(2, 4, g, 1.7 * g, 3.0 * g,
                                                  rng.uniform(0.8, 1.25), series()))
        # demo_m2 with its small couplings extended to more strong-stable components
        high = self.config_data("demo_m2")
        for _ in range(self.HIGH_N - high["n"]):
            high["coupling_fy"].append(series(rng.uniform(3e-4, 1e-3), sin=[rng.uniform(-1e-3, 1e-3)]))
            high["coupling_hy"].append(series(rng.uniform(3e-4, 1e-3), cos=[rng.uniform(-4e-4, 4e-4)]))
            high["g0"].append(series(rng.uniform(-0.05, 0.05), sin=[rng.uniform(-0.03, 0.03)]))
        high["n"] = self.HIGH_N
        self.add_config("high_n_m2", high)
        self.mu = 10.0 ** rng.uniform(-5.5, -4.5)
        shift = 10.0 ** rng.uniform(-0.1, 0.1)
        self.sweep_range = (1e-7 * shift, 1e-3 * shift)
        self.rng_seed = int(rng.integers(0, 2 ** 31))

    def ops(self, bsl):
        mu = self.mu
        return [
            self.load_op(bsl),
            Op("lyapunov", "lyapunov",
               lambda: bsl.lyapunov_spectrum(self.models["demo_m2"], mu, self.LYAPUNOV_ITERATIONS,
                                             transient=self.LYAPUNOV_TRANSIENT),
               with_returns),
            Op("lyapunov_uncoupled", "lyapunov_uncoupled",
               lambda: bsl.lyapunov_spectrum(self.models["uncoupled_m2"], mu, 10 ** 4, transient=200),
               with_returns),
            Op("certify", "certify", lambda: bsl.cone_certify(self.models["demo_m2"], mu, 256)),
            Op("itinerary", "itinerary",
               lambda: bsl.itinerary_semiconjugacy(self.models["demo_m2"], mu, rng_seed=self.rng_seed)),
            self.sweep_op(bsl, "sweep_demo_m2", "demo_m2", *self.sweep_range, 5),
            Op("certify_high_n", "certify_high_n",
               lambda: bsl.cone_certify(self.models["high_n_m2"], mu, 256)),
        ]

    def certificate_problems(self, label, name, cert, rng) -> list[str]:
        if cert.verdict is not True or cert.L_interval is None \
                or not cert.L_interval[0] < cert.L_interval[1]:
            return [f"{label}: verdict {cert.verdict}, L_interval {cert.L_interval}"]
        model = self.models[name]
        ref = ReferenceMap(self.config_data(name), self.mu)
        K = model.trapping_radius(self.mu)
        bound = cert.certified
        r = ref.n - 1
        slack = 1.0 + 1e-6
        for theta in rng.uniform(0.0, TWO_PI, 32):
            X = ref.limit_radial(theta) + K * rng.uniform(-1.0, 1.0)
            Y = K / math.sqrt(ref.k) * rng.uniform(-1.0, 1.0, ref.k)
            jac = ref.jacobian(X, Y, theta)
            norms = {
                "pr": np.linalg.norm(jac[:r, :r], 2),
                "ptheta": np.linalg.norm(jac[:r, r]),
                "qr": np.linalg.norm(jac[r, :r]),
            }
            for key, value in norms.items():
                if value > bound[key] * slack:
                    return [f"{label}: |{key}| = {value:.6g} exceeds the certified {bound[key]:.6g}"]
            if abs(jac[r, r]) * slack < bound["qtheta_lower"]:
                return [f"{label}: |dq/dtheta| = {abs(jac[r, r]):.6g} below the certified "
                        f"{bound['qtheta_lower']:.6g}"]
        return []

    def check(self, bsl, out):
        problems = []
        rng = np.random.default_rng([self.seed, 3])
        top_u = out["lyapunov_uncoupled"].top
        if abs(top_u - math.log(2.0)) > 1e-9:
            problems.append(f"uncoupled top exponent {top_u!r} is not ln 2")
        cert = out["certify"]
        problems += self.certificate_problems("certify", "demo_m2", cert, rng)
        problems += self.certificate_problems("certify_high_n", "high_n_m2",
                                              out["certify_high_n"], rng)
        if out["lyapunov"].top < math.log(cert.expansion_lower_bound) - 1e-3:
            problems.append(f"demo_m2 top exponent {out['lyapunov'].top!r} below "
                            f"ln(expansion bound) {math.log(cert.expansion_lower_bound)!r}")
        it = out["itinerary"]
        if not it.shift_consistent or it.n_symbols != 2 \
                or not it.contraction_ratio <= 1.0 / it.expansion_lower_bound:
            problems.append(f"itinerary: shift_consistent={it.shift_consistent}, "
                            f"n_symbols={it.n_symbols}, contraction {it.contraction_ratio!r} "
                            f"vs 1/expansion {1.0 / it.expansion_lower_bound!r}")
        rows = out["sweep_demo_m2"]["rows"]
        if not rows or any(r["classification"] != "Solenoid" for r in rows):
            problems.append("sweep_demo_m2: not every row is Solenoid")
        return problems

    def fingerprint(self, out):
        return {
            "lyapunov": out["lyapunov"].exponents,
            "lyapunov_uncoupled": out["lyapunov_uncoupled"].exponents,
            "certify": [out["certify"].to_dict(), out["certify"].certified],
            "certify_high_n": [out["certify_high_n"].to_dict(), out["certify_high_n"].certified],
            "itinerary": out["itinerary"].to_dict(),
            "sweep_demo_m2": out["sweep_demo_m2"]["csv"],
        }


WORKLOADS = {w.name: w for w in (BlueskySweep, TorusKlein, Solenoid)}
