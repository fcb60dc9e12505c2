import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint

import pytest

from blueskylab import cli, cone_certify, load_model
from blueskylab.cli import apply_overrides, main

from helpers import CONFIG_DIR


# a fresh interpreter imports the package from this checkout, as the suite does
SRC_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(CONFIG_DIR.parent / "src"), os.environ.get("PYTHONPATH")])))


def run(*argv):
    return main(list(argv))


def config(name):
    return str(CONFIG_DIR / f"{name}.json")


def test_validate_ok(capsys):
    assert run("validate", config("demo_m0")) == 0
    out = capsys.readouterr().out
    assert "valid, nu=2.000" in out


def test_validate_invalid_model(capsys):
    assert run("validate", config("demo_m0"), "--set", "lambda=0.5") == 1
    out = capsys.readouterr().out
    assert "NuNotGreaterThanOne" in out


def test_validate_dimension_rule(capsys):
    assert run("validate", config("demo_m0"), "--set", "m=2") == 1
    assert "DimensionForbidsM" in capsys.readouterr().out


def test_validate_missing_file():
    assert run("validate", "/nonexistent/config.json") == 2


def test_validate_malformed_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run("validate", str(bad)) == 2


def test_classify_stable_orbit(capsys, tmp_path):
    code = run("classify", config("demo_m0"), "--mu", "1e-6", "--out", str(tmp_path))
    assert code == 0
    out = capsys.readouterr().out
    assert "StablePeriodicOrbit" in out
    assert "fixed point" in out
    payload = json.loads((tmp_path / "classification.json").read_text())
    assert payload["classification"] == "StablePeriodicOrbit"


@pytest.mark.parametrize("grid", ["0", "-5", "4096", "4194304"])
def test_classify_has_no_grid_option(capsys, grid):
    # the condition grid always starts at 4096 and stops at 2^20
    with pytest.raises(SystemExit) as exit_info:
        run("classify", config("demo_m0"), "--mu", "1e-6", "--grid", grid)
    assert exit_info.value.code == 2
    assert "--grid" in capsys.readouterr().err


def test_classify_klein_bottle(capsys):
    assert run("classify", config("demo_m-1"), "--mu", "1e-4") == 0
    assert "KleinBottle" in capsys.readouterr().out


def test_classify_invariant_torus(capsys):
    assert run("classify", config("demo_m1"), "--mu", "1e-4") == 0
    out = capsys.readouterr().out
    assert "InvariantTorus" in out
    assert "orientation=Preserving" in out


def test_classify_solenoid_prints_interval(capsys):
    assert run("classify", config("demo_m2"), "--mu", "1e-5") == 0
    out = capsys.readouterr().out
    assert "Solenoid" in out
    assert "L_interval=(" in out


def test_classify_indeterminate_exit_code(capsys):
    code = run("classify", config("demo_m0"), "--mu", "1e-5",
               "--set", "h.sin.0=1.2")
    assert code == 3
    assert "Indeterminate" in capsys.readouterr().out


def test_certify_demo(capsys, tmp_path):
    code = run("certify", config("demo_m2"), "--mu", "1e-5", "--grid", "128",
               "--out", str(tmp_path))
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict: True" in out
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["verdict"] is True
    assert cert["L_interval"][0] > 0.0
    # the JSON carries the certified record the verdict rests on
    record = cone_certify(load_model(config("demo_m2")), 1e-5, 128).certified
    assert cert["certified"] == record


def test_certify_case_mismatch(capsys):
    assert run("certify", config("demo_m1"), "--mu", "1e-4") == 2


def test_certify_without_trapping_region_is_indeterminate(capsys):
    code = run("certify", config("demo_m2"), "--mu", "0.9", "--set", "coupling_fx.constant=0.5")
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "no trapping radius" in err


def test_certify_not_expanding_is_indeterminate(capsys):
    code = run("certify", config("demo_m2"), "--mu", "1e-5", "--set", "h.sin.0=1.5")
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "angular-derivative lower bound" in err


def test_certify_prints_an_empty_interval(monkeypatch, capsys, tmp_path):
    cert = cone_certify(load_model(config("demo_m2")), 1e-5, 64)
    monkeypatch.setattr(cli, "cone_certify",
                        lambda *args: dataclasses.replace(cert, L_interval=None, verdict=False))
    assert run("certify", config("demo_m2"), "--mu", "1e-5", "--out", str(tmp_path)) == 1
    assert "L_interval: (empty)\n" in capsys.readouterr().out
    assert json.loads((tmp_path / "certificate.json").read_text())["L_interval"] is None


@pytest.mark.parametrize("command", ["classify", "certify"])
def test_an_overflowing_record_is_undecided(capsys, command):
    """H_x = 1e200 overflows the certified record: exit 3, and the reason
    names the value, on stdout (classify) or as one stderr line (certify)."""
    code = run(command, config("demo_m2"), "--mu", "1e-5", "--set", "coupling_hx.constant=1e200")
    assert code == 3
    captured = capsys.readouterr()
    reason = "Undecided: certified record not finite at mu=1e-05: qr = inf\n"
    if command == "classify":
        assert captured.out.endswith("reason: " + reason)
    else:
        assert captured.err == "undecided: " + reason


def test_sweep_survives_an_overflowing_record(tmp_path):
    code = run("sweep", config("demo_m2"), "--set", "coupling_hx.constant=1e200",
               "--mu-min", "1e-7", "--mu-max", "1e-3", "--per-decade", "2",
               "--out", str(tmp_path))
    assert code == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["Indeterminate"] * 9


def test_override_value_that_is_not_json_is_a_string(capsys):
    assert apply_overrides({"m": 2}, ["m=two"]) == {"m": "two"}
    assert run("validate", config("demo_m2"), "--set", "m=two") == 2
    assert capsys.readouterr().err == "usage error: ValueError: m must be a number, got str\n"


def test_override_descends_into_a_list():
    data = json.loads((CONFIG_DIR / "demo_m2.json").read_text(encoding="utf-8"))
    want = json.loads(json.dumps(data))
    want["coupling_fy"][1]["cos"][0] = 0.002
    assert apply_overrides(data, ["coupling_fy.1.cos.0=0.002"]) == want
    assert run("validate", config("demo_m2"), "--set", "coupling_fy.1.cos.0=0.002") == 0


def test_sweep_writes_csv_and_fit(capsys, tmp_path):
    code = run("sweep", config("demo_m0"), "--mu-min", "1e-8", "--mu-max", "1e-3",
               "--per-decade", "4", "--out", str(tmp_path))
    assert code == 0
    out = capsys.readouterr().out
    assert "fitted slope" in out
    csv_text = (tmp_path / "sweep.csv").read_text()
    assert csv_text.startswith("mu,classification,period_proxy,theta_fixed,top_lyapunov,escaped")
    fit = json.loads((tmp_path / "scaling_fit.json").read_text())
    assert fit["slope"] == pytest.approx(1.0, abs=0.02)


def test_sweep_bad_range(tmp_path):
    assert run("sweep", config("demo_m0"), "--mu-min", "1e-3", "--mu-max", "1e-6",
               "--out", str(tmp_path)) == 2


def test_sweep_all_escaped_exit_code(tmp_path):
    # large mu with a strongly negative radial coupling pushes every orbit
    # out of the homoclinic tube
    code = run("sweep", config("demo_m0"), "--set", "coupling_fx.constant=-4",
               "--set", "lambda=1.5", "--mu-min", "0.5", "--mu-max", "0.9",
               "--out", str(tmp_path))
    assert code == 1
    text = (tmp_path / "sweep.csv").read_text()
    assert "Escaped" in text


def test_sweep_survives_mu_without_trapping_region(tmp_path):
    # at the large-mu end of this grid the orbit overflows (an escape), and
    # below it no trapping radius can be certified (Indeterminate rows);
    # the rest of the sweep still runs
    code = run("sweep", config("demo_m2"), "--set", "coupling_fx.constant=0.5",
               "--mu-min", "1e-2", "--mu-max", "0.9", "--out", str(tmp_path))
    assert code == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert rows[1] == "0.9,Escaped,nan,,,true"
    assert any(row.split(",")[1] == "Indeterminate" and math.isfinite(float(row.split(",")[2]))
               for row in rows[1:])
    assert rows[-1].startswith("0.01,Solenoid,")


def test_sweep_survives_not_a_circle_map(tmp_path):
    # the graph transform fails the circle-map property at mu = 0.425: that
    # row is Indeterminate, and the sweep writes every row
    code = run("sweep", config("demo_m1"), "--set", "coupling_fx.constant=0.5",
               "--mu-min", "1e-2", "--mu-max", "0.9", "--per-decade", "3",
               "--out", str(tmp_path))
    assert code == 0
    labels = [row.split(",")[1] for row in
              (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
    assert labels == ["Escaped", "Indeterminate"] + ["InvariantTorus"] * 5


def test_classify_not_a_circle_map_is_undecided(capsys):
    code = run("classify", config("demo_m1"), "--mu", "0.9", "--set", "coupling_fx.constant=0.5")
    assert code == 3
    out = capsys.readouterr().out
    assert "Indeterminate" in out and "reason: NotACircleMap" in out


@pytest.mark.parametrize("argv", [
    ["classify", "demo_m0", "--mu", "nan"],
    ["certify", "demo_m2", "--mu", "inf"],
    ["sweep", "demo_m0", "--mu-min", "1e-3", "--mu-max", "inf"],
])
def test_non_finite_mu_is_usage_error(capsys, tmp_path, argv):
    command, name, *rest = argv
    assert run(command, config(name), *rest, "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "mu must be finite and positive" in err


def test_non_finite_config_is_invalid_model(capsys):
    code = run("classify", config("demo_m0"), "--mu", "1e-6", "--set", "gamma=NaN")
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "NonFinite" in err


@pytest.mark.parametrize("override, key", [
    ("alpha=null", "alpha"),
    ("h.sin=0.3", "h: series sin"),
    ("alpha.cos=[[1]]", "alpha: series cos"),
    ("alpha.constant=[1]", "alpha: series constant"),
    ("coupling_fy.0=null", "coupling_fy.0"),
    ("m=null", "m"),
    ("gamma", "override 'gamma' is not of the form key=value"),
    ("bogus.cos=[1]", "override 'bogus.cos=[1]': unknown key 'bogus'"),
    ("gamma.cos=[1]", "override 'gamma.cos=[1]': cannot descend into float"),
])
def test_malformed_config_entry_is_usage_error(capsys, override, key):
    assert run("validate", config("demo_m1"), "--set", override) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"usage error: ValueError: {key}")
    assert "Traceback" not in err


def test_sweep_determinism(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert run("sweep", config("demo_m0"), "--mu-min", "1e-5", "--mu-max", "1e-3",
                   "--per-decade", "3", "--out", str(out)) == 0
    assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()


def test_override_list_append():
    # alpha.cos.1 appends a second harmonic; alpha.cos.5 is out of range
    assert run("validate", config("demo_m0"), "--set", "alpha.cos.1=0.1") == 0
    assert run("validate", config("demo_m0"), "--set", "alpha.cos.5=0.1") == 2


def test_console_script_entry_point():
    exe = shutil.which("blueskylab")
    if exe is None:
        pytest.skip("console script not installed")
    proc = subprocess.run([exe, "validate", config("demo_m2")],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "valid" in proc.stdout


def test_console_script_resolves_to_the_cli(monkeypatch, capsys):
    """The ``[project.scripts]`` entry of pyproject.toml, loaded as an
    installer loads it and run in-process as its script runs it, validates
    a config."""
    tomllib = pytest.importorskip("tomllib")
    with open(CONFIG_DIR.parent / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["blueskylab"]
    assert target == "blueskylab.cli:main"
    entry = EntryPoint(name="blueskylab", value=target, group="console_scripts").load()
    monkeypatch.setattr(sys, "argv", ["blueskylab", "validate", config("demo_m2")])
    assert entry() == 0
    assert "valid" in capsys.readouterr().out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "blueskylab.cli", "validate", config("demo_m1")],
        capture_output=True, text=True, env=SRC_ENV)
    assert proc.returncode == 0


def test_import_leaves_scipy_unloaded(tmp_path):
    """No path of the package loads scipy, a test-only dependency.
    Importing the package and loading models load neither scipy nor
    numpy.fft.  The |m| = 1 path (the graph transform, classification, the
    circle degree, the CLI classify and sweep, for m = 1 and m = -1)
    reaches numpy.fft; the |m| >= 2 path (the branch coding, itineraries,
    the cone certificate, the Lyapunov spectrum, the CLI certify, classify
    and sweep of demo_m2) runs too.  Checked in a fresh interpreter,
    because the test suite imports scipy itself."""
    out = str(tmp_path)
    code = "\n".join([
        "import sys",
        "import blueskylab as b, blueskylab.cli",
        f"b.load_model({config('demo_m0')!r})",
        f"m = b.load_model({config('demo_m1')!r})",
        f"k = b.load_model({config('demo_m-1')!r})",
        f"s = b.load_model({config('demo_m2')!r})",
        "assert 'numpy.fft' not in sys.modules, 'numpy.fft imported at set-up'",
        "b.graph_transform_curve(m, 1e-4, 2 ** 12)",
        "assert b.classify_attractor(m, 1e-4).label.value == 'InvariantTorus'",
        "assert b.classify_attractor(k, 1e-4).label.value == 'KleinBottle'",
        "assert b.circle_degree(m, 1e-4) == 1 and b.circle_degree(k, 1e-4) == -1",
        f"assert b.cli.main(['classify', {config('demo_m-1')!r}, '--mu', '1e-4', "
        f"'--out', {out!r}]) == 0",
        f"assert b.cli.main(['sweep', {config('demo_m1')!r}, '--mu-min', '1e-5', "
        f"'--mu-max', '1e-3', '--per-decade', '2', '--out', {out!r}]) == 0",
        "assert 'numpy.fft' in sys.modules",
        "assert len(b.branch_boundaries(s, 1e-5)[0]) == 2",
        "assert b.itinerary_semiconjugacy(s, 1e-5, depth=6, samples=512).shift_consistent",
        "assert b.cone_certify(s, 1e-5, 64).verdict",
        "assert b.lyapunov_spectrum(s, 1e-5, 1000, transient=10).top > 0.0",
        f"assert b.cli.main(['certify', {config('demo_m2')!r}, '--mu', '1e-5', "
        f"'--grid', '64', '--out', {out!r}]) == 0",
        f"assert b.cli.main(['classify', {config('demo_m2')!r}, '--mu', '1e-5', "
        f"'--out', {out!r}]) == 0",
        f"assert b.cli.main(['sweep', {config('demo_m2')!r}, '--mu-min', '1e-5', "
        f"'--mu-max', '1e-3', '--per-decade', '1', '--out', {out!r}]) == 0",
        "assert 'scipy' not in sys.modules, 'scipy imported'",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=SRC_ENV)
    assert proc.returncode == 0, proc.stderr


def test_runtime_dependencies_are_numpy_alone():
    """The package installs with numpy alone; scipy serves the tests only."""
    tomllib = pytest.importorskip("tomllib")
    with open(CONFIG_DIR.parent / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    names = [re.split(r"[ <>=!~;\[]", dep, maxsplit=1)[0] for dep in project["dependencies"]]
    assert names == ["numpy"]
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])


@pytest.mark.parametrize("argv, message", [
    (["certify", "demo_m2", "--mu", "1e-5", "--grid", "0"], "grid must be at least 1"),
    (["sweep", "demo_m0", "--mu-min", "1e-6", "--mu-max", "1e-3", "--per-decade", "0"],
     "per_decade must be at least 1"),
    (["sweep", "demo_m0", "--mu-min", "1e-6", "--mu-max", "1e-3", "--per-decade", "-2"],
     "per_decade must be at least 1"),
])
def test_empty_grid_is_usage_error(capsys, tmp_path, argv, message):
    command, name, *rest = argv
    assert run(command, config(name), *rest, "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("argv, code, stderr", [
    (["classify", "--mu", "0.5", "--set", "coupling_fx.constant=1e3"], 1,
     r"error: EscapedTube: [^\n]*\n"),
    (["classify", "--mu", "0.5", "--set", "coupling_fx.constant=1e12"], 1,
     r"error: EscapedTube: [^\n]*\n"),
    (["sweep", "--mu-min", "1e-6", "--mu-max", "0.9", "--per-decade", "4",
      "--set", "coupling_fx.constant=1e3"], 0, r""),
    (["sweep", "--mu-min", "1e-6", "--mu-max", "0.9", "--per-decade", "4",
      "--set", "coupling_fx.constant=1e12"], 1, r"error: every record escaped\n"),
], ids=["classify-1e3", "classify-1e12", "sweep-1e3", "sweep-1e12"])
def test_overflowing_orbits_leave_one_stderr_line(tmp_path, argv, code, stderr):
    """A user sees at most the one error line on stderr, no floating-point
    warning: a fresh interpreter runs with the default warning filters,
    where a warning is printed, not raised."""
    command, *options = argv
    proc = subprocess.run(
        [sys.executable, "-m", "blueskylab.cli", command, config("demo_m0"), *options,
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=SRC_ENV)
    assert proc.returncode == code
    assert re.fullmatch(stderr, proc.stderr), proc.stderr
