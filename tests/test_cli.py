import json
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from kurzmani import apps
from kurzmani.cli import (ConfigError, _read_run, config_hash, load_config, main,
                          normalize_config, parse_measure, parse_path,
                          parse_system)
from kurzmani.dichotomy import _FIT_SLACK

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def config_path(name):
    return os.path.abspath(os.path.join(CONFIG_DIR, name))


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "kurzmani.cli", *args],
                          capture_output=True, text=True)
    return proc


def small_saddle_config(tmp_path, **solver):
    cfg = {
        "system": {
            "kind": "ide",
            "n": 2,
            "A": {"constant": [[-1.0, 0.0], [0.0, 1.0]]},
            "impulses": [],
            "nonlinearity": {
                "registry": "quadratic",
                "params": {"mats": [[[0.0, 0.0], [0.0, 0.0]],
                                    [[1.0, 0.0], [0.0, 0.0]]]},
                "rho": 0.5,
            },
        },
        "solver": {"s": 0.0, "T": 12.0, "tol": 1e-9, "base_step": 0.1,
                   "grid": {"start": 0.0, "stop": 10.0, "count": 21},
                   "zeta_grid": [[-0.1], [0.0], [0.1]], **solver},
        "output": {"prefix": "t"},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path), cfg


def test_path_spec_forms():
    assert parse_path(2.0, "x", scalar=True)(1.0) == pytest.approx(2.0)
    poly = parse_path({"poly": [0.0, 1.0]}, "x", scalar=True)
    assert poly(2.0) == pytest.approx(2.0)
    pre = parse_path({"preset": {"kind": "exp", "amp": 1.0, "params": [1.0]}},
                     "x", scalar=True)
    assert pre(1.0) == pytest.approx(np.e)
    pw = parse_path({"piecewise": {"times": [1.0],
                                   "segments": [0.0, 1.0]}}, "x", scalar=True)
    assert pw(0.5) == pytest.approx(0.0)
    assert pw(1.5) == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        parse_path({"nope": 1}, "x")


def test_measure_spec_round_trip():
    mu = parse_measure({"density": 1.0, "atoms": [[0.5, 2.0]]}, "u")
    assert mu.variation((0.0, 1.0)) == pytest.approx(3.0)


def test_parse_system_shapes_validated():
    with pytest.raises(ConfigError):
        parse_system({"system": {"kind": "ide", "n": 2, "A": {"constant": [[1.0]]},
                                 "nonlinearity": {"registry": "zero",
                                                  "params": {"n": 2}}}})


def test_config_round_trip_identity():
    cfg = load_config(config_path("planar_quadratic.json"))
    normalized = normalize_config(cfg)
    again = json.loads(json.dumps(normalized, sort_keys=True, indent=2))
    assert normalized == normalize_config(again)
    assert config_hash(cfg) == config_hash(again)


def test_integrate_exit_zero_and_value(tmp_path):
    proc = run_cli(["integrate", "--config", config_path("lacunary_integral.json"),
                    "--out", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    csv = (tmp_path / "lacunary_integrate.csv").read_text().splitlines()
    assert csv[-2].startswith("decomposition,")
    value = float(csv[-2].split(",")[1])
    assert value == pytest.approx(-4.0 + 2.0 ** -10, abs=1e-9)


def test_integrate_atom_only_measure(tmp_path):
    cfg = {"integrand": {"f": 1.0,
                         "mu": {"density": 0.0, "atoms": [[0.25, 1.5], [0.5, 1.0]]},
                         "window": [0.0, 1.0], "tol": 1e-9},
           "output": {"prefix": "atoms"}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(["integrate", "--config", str(path), "--out", str(tmp_path)])
    assert proc.returncode == 0
    rows = (tmp_path / "atoms_integrate.csv").read_text().splitlines()
    assert float(rows[-2].split(",")[1]) == pytest.approx(2.5)


def test_divergent_integrand_exits_certified_failure(tmp_path):
    # a steep exponential exhausts the refinement budget at this tolerance:
    # a certified failure carrying the last two sums
    cfg = {"integrand": {"f": {"preset": {"kind": "exp", "amp": 1.0,
                                          "params": [4.0]}},
                         "mu": {"density": 1.0, "atoms": []},
                         "window": [0.0, 5.0], "tol": 1e-3},
           "output": {"prefix": "div"}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(["integrate", "--config", str(path), "--out", str(tmp_path)])
    assert proc.returncode == 2
    err = json.loads(proc.stderr.splitlines()[-1])
    assert err["error"] == "divergent_integrand"
    assert "last_two_sums" in err


def test_crosscheck_subcommand_exit_zero(tmp_path):
    proc = run_cli(["crosscheck", "--config",
                    config_path("lacunary_integral.json"), "--out", str(tmp_path)])
    assert proc.returncode == 0
    doc = json.loads((tmp_path / "lacunary_crosscheck.json").read_text())
    assert doc["passed"]


def test_insane_tolerance_rejected(tmp_path):
    cfg_path, cfg = small_saddle_config(tmp_path, tol=0.5)
    proc = run_cli(["manifold", "--config", cfg_path, "--out", str(tmp_path)])
    assert proc.returncode == 1


def test_unknown_registry_name_is_config_error(tmp_path):
    cfg_path, cfg = small_saddle_config(tmp_path)
    cfg["system"]["nonlinearity"]["registry"] = "septic"
    path = tmp_path / "unk.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(["manifold", "--config", str(path), "--out", str(tmp_path)])
    assert proc.returncode == 1
    err = json.loads(proc.stderr.splitlines()[-1])
    assert err["error"] == "config"


def test_manifold_nonconvergence_exit(tmp_path):
    cfg_path, cfg = small_saddle_config(tmp_path, zeta_grid=[[0.45]])
    cfg["system"]["nonlinearity"]["params"]["mats"][1][0][0] = 80.0
    path = tmp_path / "blow.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(["manifold", "--config", str(path), "--out", str(tmp_path)])
    assert proc.returncode == 3


WCOS = {"kind": "wcos", "params": [0.5, 3.0, 12]}


@pytest.mark.parametrize("kind", ["ide", "mde"])
def test_check_on_an_oscillatory_coefficient_is_nonconvergence(tmp_path, kind):
    # a lacunary sum of 12 terms on [0, 10]: the quadrature of the B2 bound
    # int ||A|| (ide) or of the (D5) domination int ||C|| d|u| (mde) misses
    # its tolerance (worst cell error about 5e-2) and must not pass in
    # silence; stderr holds the one JSON line that names the integral
    system = {"kind": kind, "n": 1,
              "nonlinearity": {"registry": "saturated_tanh",
                               "params": {"gain": [[0.2]]}, "rho": 1.0}}
    if kind == "ide":
        system.update(A={"preset": {**WCOS, "amp": [[-1.0]]}}, impulses=[])
    else:
        system.update(A={"constant": [[-1.0]]}, C={"constant": [[1.0]]},
                      u={"density": {"preset": {**WCOS, "amp": 1.0}}, "atoms": []})
    path = tmp_path / "osc.json"
    path.write_text(json.dumps({"system": system, "solver": {"s": 0.0, "T": 10.0},
                                "output": {"prefix": "osc"}}))
    proc = run_cli(["check", "--config", str(path), "--out", str(tmp_path)])
    assert proc.returncode == 3, proc.stderr
    (line,) = proc.stderr.splitlines()
    err = json.loads(line)
    assert err["error"] == "nonconvergence"
    integral = "B2 bound int ||A||" if kind == "ide" else "(D5) domination"
    assert err["message"].startswith(integral), err["message"]


@pytest.mark.parametrize("key, value", [("gamma", 1.0), ("M_H", 1.0),
                                        ("L_H", 1.0), ("kind", "ide_pointwise")])
def test_nonlinearity_takes_only_registry_params_and_rho(tmp_path, capsys,
                                                         key, value):
    _, cfg = small_saddle_config(tmp_path)
    cfg["system"]["nonlinearity"][key] = value
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(cfg))
    assert main(["check", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == "config"
    assert repr(key) in err["message"]


def test_svd_projection_mode_certifies(tmp_path, capsys):
    # aperiodic kicks: the default projection is the svd splitting
    kicks = [{"time": t, "B": [[0.1, 0.0], [0.0, 0.0]]} for t in (1.0, 2.0, 3.5)]
    cfg = {"system": {"kind": "linear", "n": 2,
                      "A": {"constant": [[-1.0, 0.0], [0.0, 1.0]]},
                      "impulses": kicks},
           "solver": {"window": [0.0, 10.0]},
           "output": {"prefix": "svd"}}
    path = tmp_path / "svd.json"
    path.write_text(json.dumps(cfg))
    assert main(["dichotomy", "--config", str(path), "--out", str(tmp_path)]) == 0
    cert = json.loads((tmp_path / "svd_dichotomy.json").read_text())
    assert cert["dichotomy_detected"]
    np.testing.assert_allclose(cert["P0"], [[1.0, 0.0], [0.0, 0.0]], atol=1e-8)


def test_aperiodic_kicks_config_goes_through_svd(tmp_path, capsys):
    _, cfg = small_saddle_config(tmp_path)
    cfg["system"]["impulses"] = [{"time": t, "B": [[0.1, 0.0], [0.0, 0.0]]}
                                 for t in (1.0, 2.0, 3.5)]
    path = tmp_path / "aperiodic.json"
    path.write_text(json.dumps(cfg))
    assert main(["manifold", "--config", str(path), "--out", str(tmp_path)]) == 0
    spec, run = _read_run(cfg, SimpleNamespace(command="manifold", tol=None))
    ctx = apps.build_context(spec, **run.context)
    assert ctx.dich.report.projection_mode == "svd"
    np.testing.assert_allclose(ctx.dich.P0, np.diag([1.0, 0.0]), atol=1e-8)
    # the removed knob is a config error naming it, in both of its commands
    for cmd in ("manifold", "dichotomy"):
        cfg["solver"]["projection_mode"] = "autonomous"
        if cmd == "dichotomy":
            cfg["system"]["kind"] = "linear"
            del cfg["system"]["nonlinearity"]     # a linear system has none
        path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert main([cmd, "--config", str(path), "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "config"
        assert "'projection_mode'" in err["message"]


@pytest.mark.parametrize("t0, code", [(1.0, 0), (5.0, 1)])
def test_linear_reference_time_must_lie_in_the_window(tmp_path, capsys, t0, code):
    cfg = json.loads(open(config_path("expansion_example.json")).read())
    cfg["system"]["t0"] = t0        # window [0, 3]
    path = tmp_path / "t0.json"
    path.write_text(json.dumps(cfg))
    assert main(["fundamental", "--config", str(path), "--out", str(tmp_path)]) == code
    if code:
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "config" and "t0" in err["message"]


@pytest.mark.parametrize("base_step", [0, -0.1])
def test_bad_base_step_is_config_error(tmp_path, capsys, base_step):
    # 0 used to divide by zero; -0.1 solved on the window ends and kicks alone
    cfg = json.loads(open(config_path("impulsive_saddle.json")).read())
    cfg["solver"]["base_step"] = base_step
    path = tmp_path / "step.json"
    path.write_text(json.dumps(cfg))
    assert main(["manifold", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == "config" and "base_step" in err["message"]


def test_one_point_certification_grid_is_config_error(tmp_path, capsys):
    # a one-time grid used to certify alpha = 60 and tail_bound 0 with exit 0
    cfg = json.loads(open(config_path("planar_quadratic.json")).read())
    cfg["solver"]["grid"] = {"start": 0, "stop": 10, "count": 1}
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(cfg))
    assert main(["manifold", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == "config"
    assert "two distinct times in the window [0, %g]" % cfg["solver"]["T"] \
        in err["message"]
    assert not list(tmp_path.glob("*manifold*"))


def test_output_dir_applies_without_out_flag(tmp_path, capsys):
    cfg = json.loads(open(config_path("lacunary_integral.json")).read())
    cfg["output"]["dir"] = str(tmp_path / "from_config")
    path = tmp_path / "dir.json"
    path.write_text(json.dumps(cfg))
    assert main(["integrate", "--config", str(path)]) == 0
    written = tmp_path / "from_config" / "lacunary_integrate.csv"
    assert capsys.readouterr().out.splitlines() == [str(written)]
    assert written.exists()


def test_manifold_grid_of_wrong_dimension_is_config_error(tmp_path):
    cfg = json.loads(open(config_path("planar_quadratic.json")).read())
    cfg["solver"]["zeta_grid"] = [[0.1, 0.05], [0, 0]]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(["manifold", "--config", str(path), "--out", str(tmp_path)])
    assert proc.returncode == 1
    err = json.loads(proc.stderr.splitlines()[-1])
    assert err["error"] == "config"


@pytest.mark.parametrize("cmd", ["manifold", "check", "classify"])
@pytest.mark.parametrize("nonlinearity", [
    {"registry": "quadratic", "params": {"mats": [[[1.0]]]}, "rho": 0.5},
    {"registry": "zero", "rho": 0.5},         # no "n": the zero map of R^1
], ids=["quadratic", "zero"])
def test_nonlinearity_of_another_dimension_is_config_error(tmp_path, capsys, cmd,
                                                           nonlinearity):
    cfg = json.loads(open(config_path("planar_quadratic.json")).read())
    cfg["system"]["nonlinearity"] = nonlinearity
    path = tmp_path / "dim.json"
    path.write_text(json.dumps(cfg))
    assert main([cmd, "--config", str(path), "--out", str(tmp_path)]) == 1
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == "config"
    assert "maps R^1 to R^1" in err["message"] and "n = 2" in err["message"]


def _without_window(cfg):
    return "integrate", {"integrand": {"f": 1.0, "mu": {"density": 1.0}},
                         "output": {"prefix": "nowin"}}


def _grid_without_stop(cfg):
    del cfg["solver"]["grid"]["stop"]
    return "manifold", cfg


def _impulse_without_time(cfg):
    cfg["system"]["impulses"] = [{"B": [[0.1, 0.0], [0.0, 0.0]]}]
    return "check", cfg


def _poly_of_wrong_type(cfg):
    return "integrate", {"integrand": {"f": {"poly": 5}, "window": [0.0, 1.0]},
                         "output": {"prefix": "poly"}}


def _window_of_wrong_type(cfg):
    return "integrate", {"integrand": {"f": 1.0, "window": 5},
                         "output": {"prefix": "win"}}


def _impulses_of_wrong_type(cfg):
    cfg["system"]["impulses"] = 7
    return "manifold", cfg


def _zeta_grid_of_wrong_type(cfg):
    cfg["solver"]["zeta_grid"] = 3
    return "manifold", cfg


def _nonlinearity_of_wrong_type(cfg):
    cfg["system"]["nonlinearity"] = 5
    return "manifold", cfg


def _params_of_wrong_type(cfg):
    cfg["system"]["nonlinearity"]["params"] = 5
    return "check", cfg


def _coef_without_an_axis(cfg):
    # the registry class converts its params itself: a scalar has no rows
    cfg["system"]["nonlinearity"].update(registry="cubic", params={"coef": 5})
    return "check", cfg


# a wrong-type value is named by the block that holds it
@pytest.mark.parametrize("case, key", [(_without_window, "window"),
                                       (_grid_without_stop, "stop"),
                                       (_impulse_without_time, "time"),
                                       (_poly_of_wrong_type, "integrand"),
                                       (_window_of_wrong_type, "integrand"),
                                       (_impulses_of_wrong_type, "system"),
                                       (_zeta_grid_of_wrong_type, "solver"),
                                       (_nonlinearity_of_wrong_type, "system"),
                                       (_params_of_wrong_type, "system"),
                                       (_coef_without_an_axis, "system")],
                         ids=["integrand-window", "grid-stop", "impulse-time",
                              "poly-int", "window-int", "impulses-int",
                              "zeta-grid-int", "nonlinearity-int", "params-int",
                              "coef-int"])
def test_missing_required_key_is_config_error(tmp_path, case, key):
    _, cfg = small_saddle_config(tmp_path)
    command, cfg = case(cfg)
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli([command, "--config", str(path), "--out", str(tmp_path)])
    assert proc.returncode == 1, proc.stderr
    err = json.loads(proc.stderr.splitlines()[-1])
    assert err["error"] == "config"
    assert repr(key) in err["message"]


def test_parse_error_exits_one_with_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"system": }')
    proc = run_cli(["integrate", "--config", str(bad)])
    assert proc.returncode == 1
    err = json.loads(proc.stderr.splitlines()[-1])
    assert "line 1" in err["message"]


def test_manifold_linear_config_all_zero(tmp_path):
    cfg_path, _ = small_saddle_config(tmp_path)
    cfg = json.loads(open(cfg_path).read())
    cfg["system"]["nonlinearity"] = {"registry": "zero", "params": {"n": 2},
                                     "rho": 0.5}
    path = tmp_path / "lin.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(["manifold", "--config", str(path), "--out", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "t_manifold.csv").read_text().splitlines()
    data = [r.split(",") for r in rows if not r.startswith("#")][1:]
    assert all(float(r[1]) == 0.0 for r in data)
    cert = json.loads((tmp_path / "t_manifold.json").read_text())
    assert cert["L_theory"] == 0.0


def test_manifold_outputs_are_byte_deterministic(tmp_path):
    cfg_path, _ = small_saddle_config(tmp_path)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run_cli(["manifold", "--config", cfg_path, "--out", str(out1)]).returncode == 0
    assert run_cli(["manifold", "--config", cfg_path, "--out", str(out2)]).returncode == 0
    assert (out1 / "t_manifold.csv").read_bytes() == (out2 / "t_manifold.csv").read_bytes()
    assert (out1 / "t_manifold.json").read_bytes() == (out2 / "t_manifold.json").read_bytes()


def test_dichotomy_expansion_certificate(tmp_path):
    proc = run_cli(["dichotomy", "--config", config_path("expansion_example.json"),
                    "--out", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    cert = json.loads((tmp_path / "expansion_example_dichotomy.json").read_text())
    assert cert["dichotomy_detected"]
    # certificate consistent with growth at most e^t on the window
    assert cert["K"] <= 1.0 + 1e-6
    assert cert["alpha"] >= 1.0 - 1e-6


def test_dichotomy_flat_system_certified_failure(tmp_path):
    cfg = {"system": {"kind": "linear", "n": 1, "A": {"constant": [[0.0]]}},
           "solver": {"window": [0.0, 5.0], "P0": [[1.0]],
                      "grid": {"start": 0.0, "stop": 5.0, "count": 11}},
           "output": {"prefix": "flat"}}
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(["dichotomy", "--config", str(path), "--out", str(tmp_path)])
    assert proc.returncode == 2


def test_dichotomy_default_grid_spans_the_whole_window(tmp_path):
    cfg = {"system": {"kind": "linear", "n": 1, "A": {"constant": [[-1.0]]}},
           "solver": {"window": [0.0, 20.0], "P0": [[1.0]]},
           "output": {"prefix": "wide"}}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(["dichotomy", "--config", str(path), "--out", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "wide_dichotomy.csv").read_text().splitlines()
    rows = [r.split(",") for r in lines if not r.startswith("#")][1:]
    # 21 grid points on [0, 20]: the widest stable pair is (t, s) = (20, 0)
    assert len(rows) == 21 * 22 // 2
    assert max(float(r[0]) for r in rows) == 20.0


@pytest.mark.parametrize("gen, P0", [
    ([[-1.0]], [[1.0]]), ([[-0.7]], [[1.0]]), ([[-1.3]], [[1.0]]),
    ([[-0.3]], [[1.0]]), ([[-2.9]], [[1.0]]),
    ([[-1.0, 0.0], [0.0, -2.5]], [[1.0, 0.0], [0.0, 1.0]]),
])
def test_dichotomy_certifies_no_roundoff_side(tmp_path, gen, P0):
    # P0 = Id leaves the unstable side empty: its roundoff residue, chained
    # backward over the window, must neither add rows nor steer the fit
    cfg = {"system": {"kind": "linear", "n": len(gen), "A": {"constant": gen}},
           "solver": {"window": [0.0, 20.0], "P0": P0},
           "output": {"prefix": "rank"}}
    path = tmp_path / "rank.json"
    path.write_text(json.dumps(cfg))
    assert main(["dichotomy", "--config", str(path), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "rank_dichotomy.csv").read_text().splitlines()
    rows = [r.split(",") for r in lines if not r.startswith("#")][1:]
    assert len(rows) == 21 * 22 // 2
    assert {r[2] for r in rows} == {"stable"}
    cert = json.loads((tmp_path / "rank_dichotomy.json").read_text())
    # the fit resolves log K to _FIT_SLACK, so over a 20-unit window alpha
    # may exceed the slowest rate by up to _FIT_SLACK / 20
    rate = -max(np.linalg.eigvals(gen).real)
    assert 1.0 <= cert["K"] <= math.exp(_FIT_SLACK) + 1e-12
    assert 0.0 <= cert["alpha"] - rate <= _FIT_SLACK / 20.0 + 1e-12


@pytest.mark.parametrize("P0", [None, [[1.0]]], ids=["sign_split", "explicit"])
def test_dichotomy_survives_underflowing_contraction(tmp_path, P0):
    # e^{-50 t} underflows to 0 before t = 15: such samples carry no log
    # and are dropped, the rest certify the rate
    solver = {"window": [0.0, 20.0]}
    if P0 is not None:
        solver["P0"] = P0
    cfg = {"system": {"kind": "linear", "n": 1, "A": {"constant": [[-50.0]]}},
           "solver": solver, "output": {"prefix": "steep"}}
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(cfg))
    assert main(["dichotomy", "--config", str(path), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "steep_dichotomy.csv").read_text().splitlines()
    rows = [r.split(",") for r in lines if not r.startswith("#")][1:]
    assert rows and {r[2] for r in rows} == {"stable"}
    assert max(float(r[1]) for r in rows if float(r[0]) > 0) < -49.0
    cert = json.loads((tmp_path / "steep_dichotomy.json").read_text())
    assert 1.0 <= cert["K"] <= math.exp(_FIT_SLACK) + 1e-12
    assert 0.0 <= cert["alpha"] - 50.0 <= 1e-6


def test_classify_reports_escape_rows(tmp_path):
    cfg_path, _ = small_saddle_config(
        tmp_path, initial_points=[[0.1, 0.006666666666666667]], bound=100.0)
    proc = run_cli(["classify", "--config", cfg_path, "--out", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "t_classify.csv").read_text().splitlines()
    assert any("escapes" in r for r in rows)


@pytest.mark.parametrize("point", [[0.1], [[0.1]]], ids=["scalar", "nested"])
def test_classify_point_of_wrong_dimension_is_config_error(tmp_path, point):
    cfg = json.loads(open(config_path("planar_quadratic.json")).read())
    cfg["solver"]["initial_points"] = [point]
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(["classify", "--config", str(path), "--out", str(tmp_path)])
    assert proc.returncode == 1, proc.stderr
    err = json.loads(proc.stderr.splitlines()[-1])
    assert err["error"] == "config"
    assert repr(point) in err["message"] and "n = 2" in err["message"]


def test_manifold_without_horizon_exits_zero(tmp_path):
    cfg = json.loads(open(config_path("impulsive_saddle.json")).read())
    del cfg["solver"]["T"]
    path = tmp_path / "auto.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(["manifold", "--config", str(path), "--out", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr


def test_check_reports_hypotheses(tmp_path):
    proc = run_cli(["check", "--config", config_path("scalar_mde.json"),
                    "--out", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["all_passed"]
    assert "C_g" in doc["constants"]


def test_check_flags_bad_impulse(tmp_path):
    cfg_path, cfg = small_saddle_config(tmp_path)
    cfg["system"]["impulses"] = [{"time": 1.0, "B": [[-1.0, 0.0], [0.0, -1.0]]}]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(["check", "--config", str(path), "--out", str(tmp_path)])
    assert proc.returncode == 2


def test_fundamental_emits_norm_table(tmp_path):
    proc = run_cli(["fundamental", "--config",
                    config_path("expansion_example.json"), "--out", str(tmp_path)])
    assert proc.returncode == 0
    rows = (tmp_path / "expansion_example_fundamental.csv").read_text().splitlines()
    header = [r for r in rows if not r.startswith("#")][0]
    assert header == "t,s,operator_norm"


def test_main_entry_returns_exit_code(tmp_path):
    code = main(["integrate", "--config", config_path("lacunary_integral.json"),
                 "--out", str(tmp_path)])
    assert code == 0


def test_metadata_header_present(tmp_path):
    cfg_path, cfg = small_saddle_config(tmp_path)
    run_cli(["manifold", "--config", cfg_path, "--out", str(tmp_path)])
    head = (tmp_path / "t_manifold.csv").read_text().splitlines()[:3]
    assert any(line.startswith("# config_sha256=") for line in head)
    assert any(line.startswith("# version=") for line in head)


def test_default_commands_run_without_importing_scipy(tmp_path):
    # constant generators need no quadrature and no scipy.linalg, and the
    # escape integrator is the package's own, so the CLI must not pay for
    # importing scipy at all
    code = "\n".join([
        "import sys",
        "def no_scipy(after):",
        "    loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']",
        "    assert not loaded, '%s imported %s' % (after, loaded[:3])",
        "import kurzmani.cli as cli",
        "no_scipy('import kurzmani.cli')",
        "for cmd, name in [('manifold', 'planar_quadratic'),",
        "                  ('manifold', 'impulsive_saddle'),",
        "                  ('manifold', 'scalar_mde'),",
        "                  ('dichotomy', 'expansion_example'),",
        "                  ('fundamental', 'expansion_example'),",
        "                  ('check', 'scalar_mde'),",
        "                  ('integrate', 'lacunary_integral'),",
        "                  ('classify', 'planar_quadratic'),",
        "                  ('crosscheck', 'lacunary_integral')]:",
        "    cfg = sys.argv[1] + '/' + name + '.json'",
        "    assert cli.main([cmd, '--config', cfg, '--out', sys.argv[2]]) == 0",
        "    no_scipy(cmd + ' ' + name)",
    ])
    proc = subprocess.run([sys.executable, "-c", code, os.path.abspath(CONFIG_DIR),
                           str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "impulsive_saddle_manifold.csv").exists()


def _piecewise_planar():
    """planar_quadratic with a linear-in-time coupling after t = 5: its (B2)
    bound integrates a non-constant ||A||."""
    cfg = load_config(config_path("planar_quadratic.json"))
    cfg["system"]["A"] = {"piecewise": {"times": [5.0], "segments": [
        {"constant": [[-1.0, 0.0], [0.0, 1.0]]},
        {"poly": [[[-1.0, 0.0], [0.0, 1.0]], [[0.0, 0.01], [0.0, 0.0]]]}]}}
    cfg["output"] = {"prefix": "pw"}
    return cfg


# configs whose integrals take the adaptive quadrature: a non-constant
# coefficient norm, and an exp integrand against a linear density
QUADRATURE_CONFIGS = {
    "check": _piecewise_planar,
    "crosscheck": lambda: {
        "integrand": {"f": {"preset": {"kind": "exp", "params": [1.0]}},
                      "mu": {"density": {"poly": [1.0, 0.5]}, "atoms": [[0.5, 2.0]]},
                      "window": [0.0, 1.0]},
        "output": {"prefix": "pre"}},
}


@pytest.mark.parametrize("cmd", sorted(QUADRATURE_CONFIGS))
def test_quadrature_runs_where_scipy_cannot_be_imported(tmp_path, cmd):
    """numpy is the one runtime dependency: a fresh process in which every
    scipy import fails exits 0 and writes the in-process run's bytes."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(QUADRATURE_CONFIGS[cmd]()))
    here, child = tmp_path / "here", tmp_path / "child"
    assert main([cmd, "--config", str(cfg), "--out", str(here)]) == 0
    code = "\n".join([
        "import sys",
        "sys.modules['scipy'] = None",
        "from kurzmani.cli import main",
        "sys.exit(main(sys.argv[1:]))",
    ])
    proc = subprocess.run([sys.executable, "-c", code, cmd, "--config", str(cfg),
                           "--out", str(child)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in here.iterdir())
    assert names and names == sorted(p.name for p in child.iterdir())
    for name in names:
        assert (child / name).read_bytes() == (here / name).read_bytes(), name


# the package layers each command runs, so a fresh process loads no other
ALL_LAYERS = ("funcspace", "linsys", "dichotomy", "lp_manifold", "apps")
SHIPPED_CALLS = {
    ("manifold", "planar_quadratic"): ALL_LAYERS,
    ("manifold", "impulsive_saddle"): ALL_LAYERS,
    ("manifold", "scalar_mde"): ALL_LAYERS,
    ("classify", "planar_quadratic"): ALL_LAYERS,
    ("dichotomy", "expansion_example"): ("funcspace", "linsys", "dichotomy"),
    ("fundamental", "expansion_example"): ("funcspace", "linsys"),
    ("check", "scalar_mde"): ALL_LAYERS,
    ("integrate", "lacunary_integral"): ("funcspace", "kurzweil"),
    ("crosscheck", "lacunary_integral"): ("funcspace", "kurzweil"),
    ("--help", None): ("funcspace",),
}
# imports no shipped call needs: numpy.ma comes in through np.unique
UNNEEDED = ("numpy.ma", "numpy.random", "numpy.polynomial", "scipy")


def fresh_imports(argv):
    """(exit code, every module a fresh ``python -X importtime argv`` loads)."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv],
                          capture_output=True, text=True)
    return proc.returncode, {line.split("|")[2].strip()
                             for line in proc.stderr.splitlines()
                             if line.startswith("import time:")}


@pytest.fixture(scope="module")
def numpy_imports():
    """What ``import numpy`` loads by itself (numpy 1.x loads ``numpy.ma``,
    ``numpy.random`` and ``numpy.polynomial`` eagerly)."""
    code, loaded = fresh_imports(["-c", "import numpy"])
    assert code == 0
    return loaded


@pytest.mark.parametrize("cmd, name", SHIPPED_CALLS)
def test_a_fresh_cli_process_loads_only_what_its_command_runs(cmd, name, tmp_path,
                                                              numpy_imports):
    args = [cmd] if name is None else [cmd, "--config", config_path(name + ".json"),
                                       "--out", str(tmp_path)]
    code, loaded = fresh_imports(["-m", "kurzmani.cli", *args])
    assert code == 0
    assert sorted(m for m in loaded - numpy_imports
                  if any(m == u or m.startswith(u + ".") for u in UNNEEDED)) == []
    layers = {m.split(".")[1] for m in loaded if m.startswith("kurzmani.")}
    assert layers == set(SHIPPED_CALLS[cmd, name])


def test_importing_the_package_loads_no_layer():
    code, loaded = fresh_imports(["-c", "import kurzmani"])
    assert code == 0 and "kurzmani" in loaded
    assert sorted(m for m in loaded if m.startswith("kurzmani.")) == []


def coupled_run_config(tmp_path):
    """Generator [[-1, 3], [0.5, 1]], kicks diag(0.1, 0) at 1, ..., 10, a run
    on [0.5, 10.5] and no certification grid."""
    path, cfg = small_saddle_config(tmp_path, s=0.5, T=10.5)
    cfg["system"]["A"] = {"constant": [[-1.0, 3.0], [0.5, 1.0]]}
    cfg["system"]["impulses"] = [{"time": float(t), "B": [[0.1, 0.0], [0.0, 0.0]]}
                                 for t in range(1, 11)]
    del cfg["solver"]["grid"]
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path, cfg


def test_dichotomy_certifies_the_manifold_context(tmp_path):
    # the projection is taken at t0 = s = 0.5 on the grid build_context
    # certifies; at t0 = 0 it read [[0.8001, -1.0274], [-0.1557, 0.1999]]
    path, cfg = coupled_run_config(tmp_path)
    assert main(["dichotomy", "--config", path, "--out", str(tmp_path)]) == 0
    cert = json.loads((tmp_path / "t_dichotomy.json").read_text())
    spec, run = _read_run(cfg, SimpleNamespace(command="manifold", tol=None))
    dich = apps.build_context(spec, **run.context).dich
    assert cert["P0"] == dich.P0.tolist()
    assert (cert["K"], cert["alpha"]) == (dich.K, dich.alpha)
    np.testing.assert_allclose(cert["P0"], [[0.8098, -0.9612], [-0.1602, 0.1902]],
                               atol=1e-4)


def _without_zeta_grid(cfg):
    del cfg["solver"]["zeta_grid"]
    return "manifold", "zeta_grid"


def _short_initial_point(cfg):
    cfg["solver"]["initial_points"] = [[0.1, 0.0], [0.1]]
    return "classify", "n = 2"


def _window_of_an_ide_run(cfg):
    cfg["solver"]["window"] = [0.0, 12.0]
    return "check", "'window'"


@pytest.mark.parametrize("case", [_without_zeta_grid, _short_initial_point,
                                  _window_of_an_ide_run],
                         ids=["manifold-zeta-grid", "classify-point", "ide-window"])
def test_run_keys_are_refused_before_any_layer_work(tmp_path, capsys, monkeypatch,
                                                   case):
    def refused(*args, **kwargs):
        raise AssertionError("the run reached a solver layer")

    monkeypatch.setattr(apps, "build_context", refused)
    monkeypatch.setattr(apps, "check_hypotheses", refused)
    _, cfg = small_saddle_config(tmp_path)
    command, named = case(cfg)
    path = tmp_path / "keys.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 1
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == "config" and named in err["message"]


def test_check_without_horizon_spans_s_to_s_plus_10(tmp_path, capsys):
    reports = []
    for T in ("absent", None, 10.5):
        path, cfg = small_saddle_config(tmp_path, s=0.5, T=T)
        if T == "absent":
            del cfg["solver"]["T"]
            with open(path, "w") as fh:
                json.dump(cfg, fh)
        assert main(["check", "--config", path, "--out", str(tmp_path)]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert reports[0] == reports[1] == reports[2]
    assert reports[0]["conditions"]["b_forcing_integrable"]["witness"] \
        == "window-relative over [0.5, 10.5]"


# ---------------------------------------------------------------------------
# a misspelt key is refused, not dropped: one planted misspelling per block
# ---------------------------------------------------------------------------

def _impulse_key(cfg):             # read, this would run with no kicks at all
    cfg["system"]["impulse"] = cfg["system"].pop("impulses")
    return "manifold", "impulse"


def _impulses_of_an_mde(cfg):      # read, these would be parsed and dropped
    cfg["system"]["impulses"] = [{"time": 2.0, "B": [[0.1]]}]
    return "check", "impulses"


def _linear_t0_key(cfg):
    cfg["system"]["t_0"] = 1.0
    return "dichotomy", "t_0"


def _atom_key(cfg):                # read, u would lose its atom
    cfg["system"]["u"]["atom"] = cfg["system"]["u"].pop("atoms")
    return "check", "atom"


def _impulse_entry_key(cfg):
    cfg["system"]["impulses"][0]["Time"] = cfg["system"]["impulses"][0].pop("time")
    return "check", "Time"


def _solver_key(cfg):
    cfg["solver"]["base_stp"] = cfg["solver"].pop("base_step")
    return "manifold", "base_stp"


def _integrand_key(cfg):
    cfg["integrand"]["tolerance"] = cfg["integrand"].pop("tol")
    return "integrate", "tolerance"


def _preset_key(cfg):
    cfg["integrand"]["f"]["preset"]["amplitude"] = 2.0
    return "integrate", "amplitude"


def _piecewise_key(cfg):
    cfg["integrand"]["f"] = {"piecewise": {"times": [0.5], "segments": [0.0, 1.0],
                                           "time": [0.25]}}
    return "crosscheck", "time"


def _top_level_key(cfg):           # read, check would run on [0, 10]
    cfg["solvr"] = cfg.pop("solver")
    return "check", "solvr"


def _block_of_another_command(cfg):
    cfg["solver"] = {"T": 5.0}
    return "integrate", "solver"


def _output_key(cfg):              # read, the artifact would be kurzmani_*
    cfg["output"] = {"prefx": "x"}
    return "check", "prefx"


def _grid_key(cfg):
    cfg["solver"]["grid"]["step"] = 0.5
    return "manifold", "step"


@pytest.mark.parametrize("name, case", [
    ("impulsive_saddle", _impulse_key), ("scalar_mde", _impulses_of_an_mde),
    ("expansion_example", _linear_t0_key), ("scalar_mde", _atom_key),
    ("impulsive_saddle", _impulse_entry_key), ("planar_quadratic", _solver_key),
    ("lacunary_integral", _integrand_key), ("lacunary_integral", _preset_key),
    ("lacunary_integral", _piecewise_key), ("scalar_mde", _top_level_key),
    ("lacunary_integral", _block_of_another_command), ("scalar_mde", _output_key),
    ("impulsive_saddle", _grid_key)],
    ids=["ide-system", "mde-system", "linear-system", "measure", "impulse-entry",
         "solver", "integrand", "preset", "piecewise", "top-level",
         "integrand-top-level", "output", "grid"])
def test_a_misspelt_key_exits_one_and_is_named(tmp_path, capsys, name, case):
    cfg = load_config(config_path(name + ".json"))
    command, key = case(cfg)
    path = tmp_path / "misspelt.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 1
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == "config"
    assert repr(key) in err["message"]


@pytest.mark.parametrize("density, T, code", [([5.0, -1.0], 12.0, 2),
                                              ([1.0, 1.0], 5.0, 0)])
def test_u_is_judged_on_the_run_window(tmp_path, capsys, density, T, code):
    # 5 - t turns negative inside [0, 12]; 1 + t stays positive on [0, 5]
    cfg = load_config(config_path("scalar_mde.json"))
    cfg["system"]["u"]["density"] = {"poly": density}
    cfg["solver"]["T"] = T
    path = tmp_path / "u.json"
    path.write_text(json.dumps(cfg))
    for command in ("check", "manifold"):
        assert main([command, "--config", str(path), "--out", str(tmp_path)]) == code
    if code:
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["condition"] == "b_driver_nondecreasing_bv"
