import json
import math
import shutil
import subprocess
import sys

import pytest

from blueskylab.cli import main

from helpers import CONFIG_DIR


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


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "blueskylab.cli", "validate", config("demo_m1")],
        capture_output=True, text=True)
    assert proc.returncode == 0


@pytest.mark.parametrize("argv, message", [
    (["certify", "demo_m2", "--mu", "1e-5", "--grid", "0"], "n_theta must be at least 1"),
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
