import functools
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ksring.cli import (
    ConfigError,
    cmd_stability_map,
    load_config,
    main,
    resolve_out_dir,
    wavenumber_suite,
)
from ksring.field import GridSpec, PeriodicField
from ksring.params import ModelParams, SolverConfig
from ksring.stability import critical_radius, neutral_delta, selection, spectral_report
from oracles import stored_steps

GOOD_CONFIG = """\
[model]
delta = 4.0
alpha = 1.5
v_c = 0.001

[grid]
J = 64
k = 0.01
T = 0.5

[initial]
R0 = 6.0
amplitudes = 0.1, 0.1
modes = 2, 3

[output]
stride = 25
"""


def write_config(tmp_path, text=GOOD_CONFIG, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_config_round_trip(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg.params == ModelParams(delta=4.0, alpha=1.5, v_c=0.001, R0=6.0)
    assert cfg.grid.J == 64
    assert cfg.tgrid.k == 0.01
    assert cfg.tgrid.N == 50
    assert cfg.modes == ((0.1, 2), (0.1, 3))
    assert cfg.I0 == 0.0
    assert cfg.solver.newton_iters == 3
    assert cfg.stride == 25
    assert set(cfg.emit) == {"v", "u", "curve", "means", "spectrum"}


def test_load_config_collects_field_errors(tmp_path):
    bad = GOOD_CONFIG.replace("J = 64", "J = 63").replace("alpha = 1.5", "alpha = 0.9")
    with pytest.raises(ConfigError) as exc:
        load_config(write_config(tmp_path, bad))
    text = str(exc.value)
    assert "grid.J" in text
    assert "model.alpha" in text


def test_load_config_rejects_unparseable_number(tmp_path):
    bad = GOOD_CONFIG.replace("k = 0.01", "k = fast")
    with pytest.raises(ConfigError) as exc:
        load_config(write_config(tmp_path, bad))
    assert "grid.k" in str(exc.value)


def test_load_config_rejects_mode_problems(tmp_path):
    bad = GOOD_CONFIG.replace("modes = 2, 3", "modes = 1, 3")
    with pytest.raises(ConfigError) as exc:
        load_config(write_config(tmp_path, bad))
    assert "initial.modes" in str(exc.value)
    bad = GOOD_CONFIG.replace("amplitudes = 0.1, 0.1", "amplitudes = 0.1")
    with pytest.raises(ConfigError) as exc:
        load_config(write_config(tmp_path, bad))
    assert "initial.amplitudes" in str(exc.value)


def test_config_hash_is_stable_and_sensitive(tmp_path):
    a = load_config(write_config(tmp_path))
    b = load_config(write_config(tmp_path, name="copy.ini"))
    assert a.config_hash() == b.config_hash()
    c = load_config(write_config(tmp_path, GOOD_CONFIG.replace("T = 0.5", "T = 1.0")))
    assert c.config_hash() != a.config_hash()


def test_resolve_out_dir_precedence(monkeypatch, tmp_path):
    monkeypatch.setenv("KSRING_OUT", str(tmp_path / "env"))
    assert resolve_out_dir("flag", "cfg").name == "flag"
    assert resolve_out_dir(None, "cfg").name == "cfg"
    assert resolve_out_dir(None, None).name == "env"
    monkeypatch.delenv("KSRING_OUT")
    assert resolve_out_dir(None, None).name == "out"


def test_empty_out_environment_value_falls_through_to_out(monkeypatch, tmp_path):
    # KSRING_OUT= (set but empty) is no directory, as an empty --out or dir = is not
    monkeypatch.setenv("KSRING_OUT", "")
    assert resolve_out_dir(None, None) == Path("out")
    assert resolve_out_dir("", "") == Path("out")
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", str(write_config(tmp_path))]) == 0
    assert (tmp_path / "out" / "report.json").is_file()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "run.ini"]


def test_main_missing_config_exits_3(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.ini")]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_main_non_ini_config_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("delta = 4.0\nno section header anywhere\n")
    assert main(["run", "--config", str(path)]) == 3
    assert "parse error" in capsys.readouterr().err


def test_main_invalid_config_exits_1(tmp_path, capsys):
    path = write_config(tmp_path, GOOD_CONFIG.replace("v_c = 0.001", "v_c = -1"))
    assert main(["run", "--config", str(path)]) == 1
    assert "model.v_c" in capsys.readouterr().err


def test_run_emits_expected_files(tmp_path):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "means.csv").exists()
    assert (out / "report.json").exists()
    snaps = sorted(out.glob("snapshot_*.csv"))
    curves = sorted(out.glob("curve_*.csv"))
    assert [p.name for p in snaps] == [f"snapshot_{n:02d}.csv" for n in (0, 25, 50)]
    assert len(curves) == 3
    header = snaps[0].read_text().splitlines()[0]
    assert header == "sigma,v,u"
    data = np.loadtxt(snaps[0], delimiter=",", skiprows=1)
    assert data.shape == (64, 3)
    curve = np.loadtxt(curves[0], delimiter=",", skiprows=1)
    assert curve.shape == (65, 2)
    np.testing.assert_array_equal(curve[0], curve[-1])


def test_run_report_contents(tmp_path):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "out"
    main(["run", "--config", str(cfg_path), "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    assert report["admissibility"]["pass"] is True
    assert report["grid"] == {"J": 64, "k": 0.01, "T": 0.5, "N": 50}
    assert report["params"]["R0"] == 6.0
    assert report["max_abs_mean"] <= 1e-13
    assert report["solver"]["method"] == "newton"
    assert report["spectral"]["unstable_at_R0"] == [2]
    assert report["spectral"]["predicted_dominant_at_R0"] == 2
    assert report["wall_time_seconds"] > 0
    assert len(report["config_hash"]) == 64
    assert report["config_hash"] == load_config(cfg_path).config_hash()
    # one radius R(T) throughout the report, bitwise equal to the solver's
    from ksring.radius import RadiusLaw
    from oracles import run as lib_run

    cfg = load_config(cfg_path)
    traj = lib_run(
        cfg.params, cfg.tgrid, cfg.grid, cfg.solver, cfg.initial_v(),
        law=RadiusLaw(cfg.params), store_stride=cfg.stride,
    )
    R_T = float(traj.R_nodes[cfg.tgrid.N])
    assert report["admissibility"]["bounds"]["R_T"] == report["spectral"]["R_T"] == R_T


def test_run_csv_values_round_trip_doubles(tmp_path):
    # %.17g prints doubles exactly; parsing the file recovers them bitwise
    from ksring.cli import cmd_run, load_config as load

    cfg = load(write_config(tmp_path))
    out = tmp_path / "rt"
    cmd_run(cfg, out, force=False)
    text = (out / "means.csv").read_text().splitlines()[1:]
    parsed = np.array([[float(x) for x in line.split(",")] for line in text])
    rewritten = np.array([[float(format(v, ".17g")) for v in row] for row in parsed])
    np.testing.assert_array_equal(parsed, rewritten)
    from oracles import run as lib_run
    from ksring.radius import RadiusLaw

    law = RadiusLaw(cfg.params)
    traj = lib_run(
        cfg.params, cfg.tgrid, cfg.grid, cfg.solver, cfg.initial_v(),
        law=law, store_stride=cfg.stride,
    )
    np.testing.assert_array_equal(parsed[:, 2], traj.S)


def test_run_zero_amplitude_gives_circle(tmp_path):
    text = GOOD_CONFIG.replace("amplitudes = 0.1, 0.1", "amplitudes = 0.0, 0.0")
    cfg_path = write_config(tmp_path, text)
    out = tmp_path / "flat"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["max_abs_mean"] == 0.0
    curve = np.loadtxt(out / "curve_50.csv", delimiter=",", skiprows=1)
    radii = np.hypot(curve[:, 0], curve[:, 1])
    assert np.max(np.abs(radii - radii[0])) <= 1e-12 * radii[0]
    assert radii[0] > 6.0


def test_run_admissibility_abort_and_force(tmp_path, capsys):
    text = GOOD_CONFIG.replace("R0 = 6.0", "R0 = 2.0").replace("T = 0.5", "T = 0.1")
    cfg_path = write_config(tmp_path, text)
    out = tmp_path / "bad"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert "admissibility" in capsys.readouterr().err
    assert not (out / "report.json").exists()
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--force"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["admissibility"]["pass"] is False
    assert report["admissibility"] == _admissibility_of(cfg_path).to_dict()


def _admissibility_of(cfg_path):
    from ksring.radius import RadiusLaw
    from ksring.solver import check_admissibility

    cfg = load_config(cfg_path)
    return check_admissibility(cfg.params, cfg.tgrid, RadiusLaw(cfg.params))


def test_run_admissibility_block_is_the_verdicts_own(tmp_path):
    # report.json's admissibility block is AdmissibilityReport.to_dict(), in
    # the layout the benchmark's checks read
    cfg_path = write_config(tmp_path)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    block = json.loads((tmp_path / "o" / "report.json").read_text())["admissibility"]
    report = _admissibility_of(cfg_path)
    assert block == report.to_dict()
    assert block == {
        "bounds": {"R0_min": report.r0_bound, "k_max": report.k_bound, "R_T": report.R_T},
        "pass": True,
        "R0_pass": True,
        "k_pass": True,
    }


def test_forced_run_with_broken_step_exits_2(tmp_path, capsys):
    text = """\
[model]
delta = 4.0
alpha = 3.0
v_c = 0.001

[grid]
J = 64
k = 2000
T = 2000

[initial]
R0 = 40.0
amplitudes = 0.001
modes = 2
"""
    cfg_path = write_config(tmp_path, text)
    out = tmp_path / "broken"
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--force"]) == 2
    assert "solver failure" in capsys.readouterr().err


def test_diverging_run_exits_2_at_step(tmp_path, capsys):
    # admissible, yet the iterate overflows within a few steps
    text = """\
[model]
delta = 0.1
alpha = 1.5
v_c = 5

[grid]
J = 64
k = 0.05
T = 50

[initial]
R0 = 1
amplitudes = 3, 3
modes = 2, 3
"""
    cfg_path = write_config(tmp_path, text)
    out = tmp_path / "diverged"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["run", "--config", str(cfg_path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "at step" in captured.err
    assert "run complete" not in captured.out
    assert not (out / "means.csv").exists()


def test_diverging_run_fails_without_floating_point_warnings(tmp_path, capsys):
    # the divergence repro above with numpy's default error handling: the run
    # stops at the first overflow instead of warning and carrying it forward
    text = (
        GOOD_CONFIG.replace("delta = 4.0", "delta = 0.1")
        .replace("v_c = 0.001", "v_c = 5")
        .replace("k = 0.01", "k = 0.05")
        .replace("T = 0.5", "T = 50")
        .replace("R0 = 6.0", "R0 = 1")
        .replace("amplitudes = 0.1, 0.1", "amplitudes = 3, 3")
    )
    cfg_path = write_config(tmp_path, text)
    out = tmp_path / "diverged"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", "--config", str(cfg_path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "at step" in captured.err
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert not (out / "means.csv").exists()


def test_failed_run_keeps_the_files_of_the_steps_before_it(tmp_path, capsys):
    # the divergence repro with every step stored: it fails at step 5, and
    # the snapshots and curves of steps 0 to 4, written as they were
    # computed, stay with integrate()'s values; means.csv and report.json,
    # written after step N, do not exist
    from ksring.reconstruct import curve_points, reconstruct_u
    from ksring.solver import integrate

    text = (
        GOOD_CONFIG.replace("delta = 4.0", "delta = 0.1")
        .replace("v_c = 0.001", "v_c = 5")
        .replace("k = 0.01", "k = 0.05")
        .replace("T = 0.5", "T = 50")
        .replace("R0 = 6.0", "R0 = 1")
        .replace("amplitudes = 0.1, 0.1", "amplitudes = 3, 3")
        .replace("stride = 25", "stride = 1")
    )
    cfg_path = write_config(tmp_path, text)
    out = tmp_path / "diverged"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "solver failure at step 5: " in capsys.readouterr().err
    tags = [f"{n:04d}" for n in range(5)]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [f"snapshot_{t}.csv" for t in tags] + [f"curve_{t}.csv" for t in tags]
    )

    cfg = load_config(cfg_path)
    steps = integrate(cfg.params, cfg.tgrid, cfg.grid, cfg.solver, cfg.initial_v())
    traj = steps
    for m, v in steps:
        u = reconstruct_u(traj, cfg.I0, m, v)
        snap = _parsed(out / f"snapshot_{m:04d}.csv")
        np.testing.assert_array_equal(_bits(snap[:, 0]), _bits(cfg.grid.sigma))
        np.testing.assert_array_equal(_bits(snap[:, 1]), _bits(v))
        np.testing.assert_array_equal(_bits(snap[:, 2]), _bits(u.values))
        curve = _parsed(out / f"curve_{m:04d}.csv")
        np.testing.assert_array_equal(_bits(curve), _bits(curve_points(traj, m, u)))
        if m == 4:
            break


@pytest.mark.parametrize("stride", [1, 7])
def test_run_writes_each_stored_step_before_computing_the_next(tmp_path, monkeypatch, stride):
    # when a step's height is reconstructed for its files, it is the step in
    # hand: the trajectory stores no snapshot and no later step has a Q yet
    import ksring.cli
    from ksring.reconstruct import reconstruct_u

    seen = []

    def reconstruct_in_hand(traj, I0, n, v):
        assert not hasattr(traj, "snapshots")
        assert np.isfinite(traj.Q[: n + 1]).all() and np.isnan(traj.Q[n + 1 :]).all()
        seen.append(n)
        return reconstruct_u(traj, I0, n, v)

    monkeypatch.setattr(ksring.cli, "reconstruct_u", reconstruct_in_hand)
    text = GOOD_CONFIG.replace("T = 0.5", "T = 0.2").replace("stride = 25", f"stride = {stride}")
    out = tmp_path / "o"
    ksring.cli.cmd_run(load_config(write_config(tmp_path, text)), out, force=False)
    assert seen == list(range(0, 20, stride)) + [20]
    assert (out / "report.json").exists() and (out / "means.csv").exists()


@pytest.mark.parametrize(
    "edit, extra, key",
    [
        ("", ["--jn", "0"], "--jn:"),
        ("[solver]\njn = 0\n", [], "solver.jn:"),
        ("[solver]\nreference_tol = -1\n", [], "solver.reference_tol:"),
    ],
)
def test_bad_solver_values_are_config_errors(tmp_path, capsys, edit, extra, key):
    cfg_path = write_config(tmp_path, GOOD_CONFIG + edit)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o"), *extra]) == 1
    err = capsys.readouterr().err
    assert f"config error: {key}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "eoc", "wavenumber-suite"])
def test_jn_flag_errors_name_the_flag(tmp_path, capsys, command):
    # a bad --jn is named by the flag that gave it; the same value in a
    # config file keeps its section.key
    config = [] if command == "wavenumber-suite" else ["--config", str(write_config(tmp_path))]
    out = tmp_path / "o"
    assert main([command, *config, "--out", str(out), "--jn", "0"]) == 1
    assert capsys.readouterr().err == "config error: --jn: must be >= 1, got 0\n"
    if config:
        in_file = write_config(tmp_path, GOOD_CONFIG + "[solver]\njn = 0\n", "jn0.ini")
        assert main([command, "--config", str(in_file), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "config error: solver.jn: must be >= 1, got 0\n"
    assert not out.exists()


def test_run_jn_flag_is_recorded_and_hashed(tmp_path):
    # --jn is the run's sweep count: report.json says so, and config_hash
    # is that of a config setting the same jn
    cfg_path = write_config(tmp_path)
    plain = tmp_path / "plain"
    assert main(["run", "--config", str(cfg_path), "--out", str(plain)]) == 0
    assert json.loads((plain / "report.json").read_text())["config_hash"] == load_config(cfg_path).config_hash()
    reports = {}
    for jn in (1, 5):
        out = tmp_path / f"jn{jn}"
        assert main(["run", "--config", str(cfg_path), "--out", str(out), "--jn", str(jn)]) == 0
        reports[jn] = json.loads((out / "report.json").read_text())
        assert reports[jn]["solver"]["jn"] == jn
    assert reports[1]["config_hash"] != reports[5]["config_hash"]
    in_file = write_config(tmp_path, GOOD_CONFIG + "[solver]\njn = 5\n", "jn5.ini")
    assert main(["run", "--config", str(in_file), "--out", str(tmp_path / "file5")]) == 0
    assert reports[5]["config_hash"] == load_config(in_file).config_hash()
    snapshot = "snapshot_50.csv"
    assert (tmp_path / "jn5" / snapshot).read_bytes() == (tmp_path / "file5" / snapshot).read_bytes()


def test_eoc_jn_flag_changes_the_config_hash(tmp_path):
    cfg_path = write_config(tmp_path, GOOD_CONFIG.replace("J = 64", "J = 16"))
    hashes = {}
    for extra in ([], ["--jn", "2"]):
        out = tmp_path / f"eoc{len(extra)}"
        assert main(["eoc", "--config", str(cfg_path), "--out", str(out), *extra]) == 0
        hashes[tuple(extra)] = json.loads((out / "eoc.json").read_text())["config_hash"]
    assert hashes[()] == load_config(cfg_path).config_hash()
    assert hashes[("--jn", "2")] != hashes[()]


def test_wavenumber_suite_records_its_jn(tmp_path, monkeypatch, capsys):
    import ksring.cli

    monkeypatch.setattr(ksring.cli, "wavenumber_suite", functools.partial(wavenumber_suite, J=64, k=0.05, T=2.0))
    for extra, jn in (([], 3), (["--jn", "2"], 2)):
        out = tmp_path / f"suite{jn}"
        assert main(["wavenumber-suite", "--out", str(out), *extra]) == 0
        assert json.loads((out / "wavenumber_suite.json").read_text())["jn"] == jn
    capsys.readouterr()
    out = tmp_path / "suite0"
    assert main(["wavenumber-suite", "--out", str(out), "--jn", "0"]) == 1
    assert capsys.readouterr().err.startswith("config error: --jn:")
    assert not out.exists()


def test_wavenumber_suite_without_jn_runs_the_solver_default(tmp_path, monkeypatch, capsys):
    # the suite's j_n has no default of its own: it is SolverConfig's, as for run and eoc
    import ksring.cli

    monkeypatch.setattr(ksring.cli, "wavenumber_suite", functools.partial(wavenumber_suite, J=64, k=0.05, T=1.0))
    monkeypatch.setattr(SolverConfig.__init__, "__defaults__", (2, SolverConfig.reference_tol))
    assert SolverConfig().newton_iters == 2
    out = tmp_path / "suite"
    assert main(["wavenumber-suite", "--out", str(out)]) == 0
    capsys.readouterr()
    assert json.loads((out / "wavenumber_suite.json").read_text())["jn"] == 2


@pytest.mark.parametrize("command", ["run", "eoc"])
def test_unsolvable_radius_law_is_a_solver_failure(tmp_path, capsys, command):
    # at v_c = 1e300 the radius solve overflows
    text = GOOD_CONFIG.replace("v_c = 0.001", "v_c = 1e300")
    out = tmp_path / "out"
    assert main([command, "--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("solver failure: radius law failed with ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("edit", [("v_c = 0.001", "v_c = 1e300"), ("alpha = 1.5", "alpha = 1e300")], ids=["v_c", "alpha"])
def test_overflowing_radius_law_is_one_solver_failure(tmp_path, capsys, edit):
    # the radius solve overflows: exit 2 with one stderr line, no NumPy warning
    cfg_path, out = write_config(tmp_path, GOOD_CONFIG.replace(*edit)), tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", "--config", str(cfg_path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("solver failure: radius law failed with ") and err.count("\n") == 1
    assert "RuntimeWarning" not in err
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert not out.exists()


def test_no_command_writes_into_a_trajectory(tmp_path, monkeypatch):
    # run and eoc pass each yielded step on as it comes; a trajectory has no
    # place to store a step
    import ksring.cli
    import ksring.experiments

    started = []

    def recording(real):
        def wrapper(*args, **kwargs):
            started.append(real(*args, **kwargs))
            return started[-1]

        return wrapper

    for module in (ksring.cli, ksring.experiments):
        monkeypatch.setattr(module, "integrate", recording(module.integrate))
    cfg_path = str(write_config(tmp_path, GOOD_CONFIG.replace("J = 64", "J = 16")))
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 0
    assert main(["eoc", "--config", cfg_path, "--levels", "3", "--out", str(tmp_path / "eoc")]) == 0
    # run's one integration, then eoc's reference and a reference and Newton pair a level
    assert [steps.grid.J for steps in started] == [16, 512, 16, 16, 32, 32, 64, 64]
    assert not [steps for steps in started if hasattr(steps, "snapshots")]


def test_unknown_sections_and_keys_are_config_errors(tmp_path, capsys):
    text = GOOD_CONFIG.replace("stride = 25", "stirde = 25") + "[solver]\nlinear_tol = 1e-12\n\n[extra]\nx = 1\n"
    cfg_path = write_config(tmp_path, text)
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    for problem in ("output.stirde: unknown key", "solver.linear_tol: unknown key", "extra: unknown section"):
        assert f"config error: {problem}" in err
    assert not out.exists()


@pytest.mark.parametrize("extra", [["--bogus"], ["--jn", "x"], ["--seed", "1"]])
def test_main_invalid_arguments_exit_1(tmp_path, capsys, extra):
    cfg_path = write_config(tmp_path)
    assert main(["run", "--config", str(cfg_path), *extra]) == 1
    assert "usage" in capsys.readouterr().err


def test_main_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out


def test_eoc_command(tmp_path):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "eoc"
    assert main(["eoc", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = json.loads((out / "eoc.json").read_text())
    assert report["eoc"]["reference_J"] == 8 * 256
    assert len(report["eoc"]["levels"]) == 3
    for rate in report["eoc"]["eoc_v"] + report["eoc"]["eoc_u"]:
        assert 1.5 <= rate <= 2.5
    table = np.loadtxt(out / "eoc.csv", delimiter=",", skiprows=1)
    assert table.shape == (3, 6)
    assert list(table[:, 0]) == [64.0, 128.0, 256.0]


def test_eoc_ladder_frees_each_finished_trajectory(tmp_path, monkeypatch):
    # when a run starts, only the trajectories of its own level may be alive:
    # the reference and every finished level's runs are already released
    import weakref

    import ksring.experiments

    returned = []  # (J, weak reference) of every trajectory run returned
    alive_at_start = []
    real_run = ksring.experiments.integrate

    def recording_run(params, tgrid, grid, *args, **kwargs):
        alive_at_start.append((grid.J, [J for J, ref in returned if J != grid.J and ref() is not None]))
        traj = real_run(params, tgrid, grid, *args, **kwargs)
        returned.append((grid.J, weakref.ref(traj)))
        return traj

    monkeypatch.setattr(ksring.experiments, "integrate", recording_run)
    cfg = load_config(write_config(tmp_path, GOOD_CONFIG.replace("J = 64", "J = 16")))
    report = ksring.experiments.eoc_ladder(cfg, levels=3)
    assert [J for J, _ in returned] == [512, 16, 16, 32, 32, 64, 64]
    assert alive_at_start == [(J, []) for J, _ in returned]
    assert [level.J for level in report.levels] == [16, 32, 64]


def test_eoc_newton_gap_matches_two_stored_runs(tmp_path, monkeypatch):
    # the lockstep gap equals, bit for bit, the largest norm_h difference of
    # two whole stride-1 trajectories, and the ladder's trajectories store no step
    import ksring.experiments
    from ksring.field import GridSpec, PeriodicField, norm_h
    from ksring.params import TimeGrid
    from ksring.radius import RadiusLaw
    from oracles import run as lib_run

    started = []
    real_integrate = ksring.experiments.integrate

    def recording_integrate(*args, **kwargs):
        started.append(real_integrate(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(ksring.experiments, "integrate", recording_integrate)
    cfg = load_config(write_config(tmp_path, GOOD_CONFIG.replace("J = 64", "J = 16")))
    report = ksring.experiments.eoc_ladder(cfg, levels=3)
    law = RadiusLaw(cfg.params)
    for level in report.levels:
        J, T = level.J, cfg.tgrid.T
        tg, grid = TimeGrid.from_horizon(T, T / J), GridSpec(J)
        v0 = replace(cfg, grid=grid).initial_v()
        cn, newton = (
            lib_run(cfg.params, tg, grid, cfg.solver, v0, law=law, method=method, store_stride=1)
            for method in ("reference", "newton")
        )
        gap = max(norm_h(PeriodicField(newton.snapshots[n] - cn.snapshots[n], grid.h)) for n in range(tg.N + 1))
        assert level.newton_gap > 0.0 and level.newton_gap.hex() == gap.hex(), J
    assert [steps.grid.J for steps in started] == [512, 16, 16, 32, 32, 64, 64]
    assert not [steps for steps in started if hasattr(steps, "snapshots")]


def test_stability_map_command(tmp_path):
    text = GOOD_CONFIG.replace("alpha = 1.5", "alpha = 1.2")
    cfg_path = write_config(tmp_path, text)
    out = tmp_path / "map"
    code = main(
        ["stability-map", "--config", str(cfg_path), "--out", str(out),
         "--rmin", "0", "--rmax", "30", "--samples", "31", "--mmax", "5"]
    )
    assert code == 0
    table = np.loadtxt(out / "neutral_curves.csv", delimiter=",", skiprows=1)
    assert table.shape == (31, 5)
    R = table[:, 0]
    for col, m in zip(range(1, 5), range(2, 6)):
        np.testing.assert_allclose(table[:, col], 0.2 * R**2 / m**2, atol=1e-12)
    report = json.loads((out / "stability.json").read_text())
    assert report["R_star"] == pytest.approx(2.0 * math.sqrt(4.0 / 0.2), rel=1e-12)


def test_stability_map_defaults_are_the_parsers(tmp_path):
    # without range flags the map takes argparse's defaults, the one place
    # they are written: 121 radii from 0 to 30 and modes 2 to 5
    out = tmp_path / "map"
    assert main(["stability-map", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
    header, *rows = (out / "neutral_curves.csv").read_text().splitlines()
    assert header == "R,delta_m2,delta_m3,delta_m4,delta_m5"
    R = np.array([float(row.split(",")[0]) for row in rows])
    assert R.size == 121 and R[0] == 0.0 and R[-1] == 30.0
    np.testing.assert_array_equal(R, np.linspace(0.0, 30.0, 121))


def test_stability_map_predictions():
    # direct call with the reference parameters: R = 12 predicts mode 3
    import tempfile
    from pathlib import Path

    params = ModelParams(delta=4.0, alpha=1.5, v_c=0.001, R0=6.0)
    with tempfile.TemporaryDirectory() as d:
        report = cmd_stability_map(params, Path(d), r_min=12.0, r_max=13.0, samples=2, m_max=5)
        assert report["spectral"][0]["R"] == 12.0
        assert report["spectral"][0]["unstable_modes"] == [2, 3, 4]
        assert report["spectral"][0]["predicted_dominant"] == 3


def test_wavenumber_suite_structure_small_scale():
    # shrunk horizon keeps this a smoke test of the row contract
    rows = wavenumber_suite(J=64, k=0.05, T=2.0, solver=SolverConfig(newton_iters=2))
    assert [r["R0"] for r in rows] == [6.0, 9.0, 12.0, 15.0, 18.0]
    for row in rows:
        assert set(row) >= {
            "modes", "unstable_at_R0", "predicted_dominant", "predicted_seeded",
            "measured_dominant", "R_T", "max_abs_mean", "pass",
        }
        assert row["max_abs_mean"] <= 1e-12
    assert rows[0]["unstable_at_R0"] == [2]
    assert rows[2]["predicted_dominant"] == 3
    assert rows[2]["predicted_seeded"] is False
    assert rows[4]["predicted_dominant"] == 5
    assert rows[4]["predicted_seeded"] is False


def test_run_report_and_suite_read_one_selection_verdict(tmp_path):
    # The suite's R0 = 6 member as a `ksring run`: its spectral block is
    # selection() of the run's R(T) and u(T), and the suite's row carries the
    # same verdict.
    config = GOOD_CONFIG.replace("k = 0.01", "k = 0.05").replace("T = 0.5", "T = 2.0")
    config = config.replace("0.1, 0.1\nmodes = 2, 3", "0.1, 0.1, 0.1, 0.1\nmodes = 2, 3, 4, 5")
    out = tmp_path / "run"
    assert main(["run", "--config", str(write_config(tmp_path, config)), "--out", str(out)]) == 0
    spectral = json.loads((out / "report.json").read_text())["spectral"]
    u_T = np.loadtxt(out / "snapshot_40.csv", delimiter=",", skiprows=1)[:, 2]
    params = ModelParams(delta=4.0, alpha=1.5, v_c=0.001, R0=6.0)
    assert spectral == selection(params, spectral["R_T"], PeriodicField(u_T, GridSpec(64).h))

    row = wavenumber_suite(J=64, k=0.05, T=2.0, solver=SolverConfig())[0]
    assert row["R0"] == 6.0 and row["modes"] == [2, 3, 4, 5]
    assert row["unstable_at_R0"] == spectral["unstable_at_R0"]
    assert row["predicted_dominant"] == spectral["predicted_dominant_at_R0"]
    assert row["measured_dominant"] == spectral["measured_dominant"]
    assert row["R_T"] == spectral["R_T"]


def test_run_determinism_across_invocations(tmp_path):
    cfg_path = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", str(cfg_path), "--out", str(out1)])
    main(["run", "--config", str(cfg_path), "--out", str(out2)])
    assert (out1 / "means.csv").read_bytes() == (out2 / "means.csv").read_bytes()
    assert (out1 / "snapshot_50.csv").read_bytes() == (out2 / "snapshot_50.csv").read_bytes()
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    assert r1["config_hash"] == r2["config_hash"]


# --- CSV output --------------------------------------------------------------


def _per_value_csv(path, header, rows):
    """The per-value formatter write_csv replaced: the byte-identity oracle."""
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(format(float(x), ".17g") for x in row) + "\n")


SPECIAL_VALUES = [-0.0, 5e-324, 1e308, 0.1, math.nan, math.inf, -math.inf, -1e-300, 1 / 3]


def _mixed_table(n_rows):
    """Rows [n, J, x, y] with ints, wide-range doubles and special values."""
    rng = np.random.default_rng(n_rows)
    xy = rng.standard_normal((n_rows, 2)) * 10.0 ** rng.integers(-300, 300, (n_rows, 2))
    flat = xy.ravel()
    flat[: len(SPECIAL_VALUES)] = SPECIAL_VALUES[: flat.size]
    return [[n, 2048, float(x), float(y)] for n, (x, y) in enumerate(xy)]


ROW_FORMS = {
    "generator": lambda table: (tuple(row) for row in table),
    "array": lambda table: np.array(table, dtype=float).reshape(len(table), 4),
    "lists": lambda table: table,
}


@pytest.mark.parametrize("form", sorted(ROW_FORMS))
@pytest.mark.parametrize("n_rows", ["zero", "one", "block", "two_blocks_plus_one"])
def test_write_csv_bytes_match_per_value_formatter(tmp_path, form, n_rows):
    from ksring.cli import CSV_BLOCK_ROWS, write_csv

    count = {"zero": 0, "one": 1, "block": CSV_BLOCK_ROWS, "two_blocks_plus_one": 2 * CSV_BLOCK_ROWS + 1}[n_rows]
    table = _mixed_table(count)
    header = ["n", "J", "x", "y"]
    write_csv(tmp_path / "new.csv", header, ROW_FORMS[form](table))
    _per_value_csv(tmp_path / "old.csv", header, ROW_FORMS[form](table))
    written = (tmp_path / "new.csv").read_bytes()
    assert written == (tmp_path / "old.csv").read_bytes()
    assert written.count(b"\n") == count + 1
    if count == 0:
        assert written == b"n,J,x,y\n"


@pytest.mark.parametrize("n_rows", ["zero", "one", "block", "two_blocks_plus_one"])
def test_write_csv_first_column_text_matches_per_value_formatter(tmp_path, n_rows):
    # a first column passed as formatted bytes writes the bytes of the same column passed as numbers
    from ksring.cli import CSV_BLOCK_ROWS, write_csv

    count = {"zero": 0, "one": 1, "block": CSV_BLOCK_ROWS, "two_blocks_plus_one": 2 * CSV_BLOCK_ROWS + 1}[n_rows]
    table = _mixed_table(count)
    header = ["x", "n", "J", "y"]
    table = [[x, n, J, y] for n, J, x, y in table]  # the special values lead the rows
    text = [format(row[0], ".17g").encode() for row in table]
    write_csv(tmp_path / "new.csv", header, np.array([row[1:] for row in table]).reshape(count, 3), first_column=text)
    _per_value_csv(tmp_path / "old.csv", header, table)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


SNAPSHOT_CASES = {
    "J520_partial_block": (520, "v, u"),  # rows 0-511 and a partial block of 8
    "J16_under_one_block": (16, "v, u"),
    "J520_emit_v_alone": (520, "v"),  # two columns: sigma and v
}


@pytest.mark.parametrize("case", sorted(SNAPSHOT_CASES))
def test_run_snapshot_bytes_match_per_value_formatter(tmp_path, case):
    # the grid column is formatted once per run and written ahead of each
    # snapshot's v and u; every file equals the per-value %.17g writer's
    from ksring.cli import cmd_run
    from ksring.radius import RadiusLaw
    from ksring.reconstruct import reconstruct_u
    from oracles import run as lib_run

    J, emit = SNAPSHOT_CASES[case]
    text = (
        GOOD_CONFIG.replace("J = 64", f"J = {J}").replace("T = 0.5", "T = 0.03").replace("stride = 25", "stride = 1")
        + f"emit = {emit}\n"
    )
    cfg = load_config(write_config(tmp_path, text))
    out = tmp_path / "snap"
    cmd_run(cfg, out, force=False)
    traj = lib_run(
        cfg.params, cfg.tgrid, cfg.grid, cfg.solver, cfg.initial_v(),
        law=RadiusLaw(cfg.params), store_stride=cfg.stride,
    )
    sigma = traj.grid.sigma
    assert any(format(s, ".16g") != format(s, ".17g") for s in sigma)  # %.16g would show
    header = ["sigma", "v", "u"] if "u" in emit else ["sigma", "v"]
    assert sorted(p.name for p in out.glob("snapshot_*.csv")) == [f"snapshot_{n}.csv" for n in range(4)]
    for n in stored_steps(traj):
        columns = [sigma, traj.snapshots[n]] + ([reconstruct_u(traj, cfg.I0, n, traj.snapshots[n]).values] if "u" in emit else [])
        _per_value_csv(tmp_path / "expected.csv", header, np.column_stack(columns))
        written = (out / f"snapshot_{n}.csv").read_bytes()
        assert written == (tmp_path / "expected.csv").read_bytes(), f"snapshot_{n}.csv"
        assert written.count(b"\n") == J + 1


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def _parsed(path):
    """The values of a written CSV file, header dropped."""
    lines = path.read_text().splitlines()[1:]
    return np.array([[float(x) for x in line.split(",")] for line in lines])


def test_run_csv_files_round_trip_bitwise(tmp_path):
    # every written field parses back to the in-process value, bit for bit
    from ksring.cli import cmd_run
    from ksring.radius import RadiusLaw
    from ksring.reconstruct import curve_points, mean_I_path, reconstruct_u
    from oracles import run as lib_run

    text = GOOD_CONFIG.replace("J = 64", "J = 32").replace("T = 0.5", "T = 0.05").replace("stride = 25", "stride = 1")
    cfg = load_config(write_config(tmp_path, text))
    out = tmp_path / "rt"
    cmd_run(cfg, out, force=False)
    law = RadiusLaw(cfg.params)
    traj = lib_run(
        cfg.params, cfg.tgrid, cfg.grid, cfg.solver, cfg.initial_v(),
        law=law, store_stride=cfg.stride,
    )

    def parsed(name):
        lines = (out / name).read_text().splitlines()[1:]
        return np.array([[float(x) for x in line.split(",")] for line in lines])

    N = cfg.tgrid.N
    assert stored_steps(traj) == list(range(N + 1))
    for n in stored_steps(traj):
        snap = parsed(f"snapshot_{n}.csv")
        np.testing.assert_array_equal(_bits(snap[:, 0]), _bits(traj.grid.sigma))
        np.testing.assert_array_equal(_bits(snap[:, 1]), _bits(traj.snapshots[n]))
        u = reconstruct_u(traj, cfg.I0, n, traj.snapshots[n])
        np.testing.assert_array_equal(_bits(snap[:, 2]), _bits(u.values))
        np.testing.assert_array_equal(_bits(parsed(f"curve_{n}.csv")), _bits(curve_points(traj, n, u)))
    means = parsed("means.csv")
    np.testing.assert_array_equal(means[:, 0], np.arange(N + 1))
    np.testing.assert_array_equal(_bits(means[:, 1]), _bits([n * cfg.tgrid.k for n in range(N + 1)]))
    np.testing.assert_array_equal(_bits(means[:, 2]), _bits(traj.S))
    np.testing.assert_array_equal(_bits(means[:, 3]), _bits(mean_I_path(traj, cfg.I0)))


def test_run_reconstructs_each_stored_step_once(tmp_path, monkeypatch):
    # the snapshot, the curve and the spectral report share one height per
    # stored step, and the admissibility report of cmd_run is reused
    import ksring.cli
    import ksring.reconstruct

    calls = {"reconstruct_u": 0, "check_admissibility": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    u_counter = counted("reconstruct_u", ksring.reconstruct.reconstruct_u)
    monkeypatch.setattr(ksring.reconstruct, "reconstruct_u", u_counter)
    monkeypatch.setattr(ksring.cli, "reconstruct_u", u_counter)
    monkeypatch.setattr(ksring.cli, "check_admissibility", counted("check_admissibility", ksring.cli.check_admissibility))
    cfg = load_config(write_config(tmp_path))
    report = ksring.cli.cmd_run(cfg, tmp_path / "o", force=False)
    assert calls == {"reconstruct_u": 3, "check_admissibility": 1}  # steps 0, 25 and 50
    assert report["spectral"]["measured_dominant"] is not None


def test_run_report_timing_block(tmp_path):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    timing = report["timing"]
    assert set(timing) == {"solve_s", "reconstruct_s", "write_s"}
    for seconds in timing.values():
        assert math.isfinite(seconds) and seconds >= 0
    assert timing["solve_s"] == report["wall_time_seconds"]
    # the timing block lies outside the hashed configuration
    cfg = load_config(cfg_path)
    assert "timing" not in cfg.to_dict()
    assert report["config_hash"] == cfg.config_hash()


def test_eoc_report_timing_block(tmp_path):
    cfg_path = write_config(tmp_path, GOOD_CONFIG.replace("J = 64", "J = 16"))
    out = tmp_path / "eoc"
    assert main(["eoc", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = json.loads((out / "eoc.json").read_text())
    timing = report["timing"]
    assert set(timing) == {"reference_solve_s", "reference_sweeps", "levels"}
    assert [level["J"] for level in timing["levels"]] == [16, 32, 64]
    seconds = [timing["reference_solve_s"]]
    for level in timing["levels"]:
        assert set(level) == {"J", "reference_solve_s", "newton_solve_s", "reference_sweeps"}
        seconds += [level["reference_solve_s"], level["newton_solve_s"]]
    assert all(math.isfinite(s) and s >= 0 for s in seconds)
    # each run takes N = J steps (k = T/J) and at least one sweep a step
    for J, sweeps in [(512, timing["reference_sweeps"])] + [(l["J"], l["reference_sweeps"]) for l in timing["levels"]]:
        assert type(sweeps) is int and J <= sweeps <= 50 * J, (J, sweeps)
    # the timing block lies outside the ladder's results and the hashed configuration
    assert "timing" not in report["eoc"]
    assert report["config_hash"] == load_config(cfg_path).config_hash()


def test_percent_in_config_value_is_taken_literally(tmp_path, monkeypatch):
    # "%" is legal in a directory name; configparser's default interpolation
    # would reject it as a parse error (exit 3).
    cfg_path = write_config(tmp_path, GOOD_CONFIG + "dir = a%b\n")
    assert load_config(cfg_path).out_dir == "a%b"
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "a%b" / "report.json").is_file()


# --- the config contract -----------------------------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"
README_INI = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
(README_PYTHON,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)  # the Library block


def _ini_keys(text):
    """(section, key) of every key line of an INI text, in order."""
    keys, section = [], None
    for line in text.splitlines():
        if line.startswith("["):
            section = line.strip("[]")
        elif "=" in line:
            keys.append((section, line.split("=")[0].strip()))
    return keys


README_KEYS = _ini_keys(README_INI)  # the README example sets every key
REQUIRED_KEYS = {"delta", "alpha", "v_c", "J", "k", "T", "R0", "amplitudes", "modes"}
TEXT_KEYS = {"v0_method", "dir", "emit"}


def _edit_key(text, key, new_line):
    lines = [new_line if line.split("=")[0].strip() == key else line for line in text.splitlines()]
    return "\n".join(line for line in lines if line is not None) + "\n"


def test_readme_library_example_runs_as_written():
    namespace = {}
    exec(README_PYTHON, namespace)
    assert namespace["u_final"].J == 256


def test_readme_config_hash_is_pinned(tmp_path):
    cfg = load_config(write_config(tmp_path, README_INI))
    assert cfg.config_hash() == "433b741aa4337e72a452ce71aabfeb9f8eb94f47a1dff44e7861cb05a5a0a2be"


def test_readme_run_at_small_v_c_completes(tmp_path, capsys):
    # the radius law solves v_c = 1e-6, where R(T) is sqrt(R0^2 + 2 (alpha - 1) T) + O(v_c)
    out = tmp_path / "out"
    text = README_INI.replace("v_c = 0.001", "v_c = 1e-6")
    assert main(["run", "--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    R_T = json.loads((out / "report.json").read_text())["spectral"]["R_T"]
    assert 0 < R_T - math.sqrt(6.0**2 + 2 * 0.5 * 100) < 1e-4


def test_config_hash_records_T_as_N_times_k(tmp_path):
    text = README_INI.replace("k = 0.01", "k = 0.1").replace("T = 100", "T = 0.3")
    cfg = load_config(write_config(tmp_path, text))
    assert cfg.to_dict()["grid"]["T"] == 3 * 0.1 != 0.3
    assert cfg.config_hash() == "efd61085f59849cde17da2e4ad1248ec955cdd0483f931db9f448db46aa4b403"


# The criterion-3 convergence config: the eoc ladder of the acceptance tests.
CRITERION_3_INI = """\
[model]
delta = 4.0
alpha = 1.28
v_c = 0.1

[grid]
J = 64
k = 0.015625
T = 1.0

[initial]
R0 = 60.0
amplitudes = 0.5
modes = 2
"""

EVERY_OPTIONAL_KEY_INI = functools.reduce(
    lambda text, line: _edit_key(text, line.split("=")[0].strip(), line),
    ["I0 = 0.25", "jn = 2", "v0_method = centered", "reference_tol = 1e-10", "dir = elsewhere", "stride = 7",
     "emit = v, means"],
    README_INI,
)


@pytest.mark.parametrize(
    "text", [README_INI, CRITERION_3_INI, EVERY_OPTIONAL_KEY_INI], ids=["readme", "criterion_3", "every_optional_key"]
)
def test_config_hash_is_the_sha256_of_the_sorted_json(tmp_path, text):
    # hashlib's SHA-256 (OpenSSL's, where Python has it) is the independent
    # oracle of the built-in digest config_hash computes
    cfg = load_config(write_config(tmp_path, text))
    blob = json.dumps(cfg.to_dict(), sort_keys=True).encode()
    assert cfg.config_hash() == hashlib.sha256(blob).hexdigest()


def fresh_python(*args, cwd):
    """Runs a fresh interpreter on args, importing the ksring this process
    imported (the checkout's src, or an installed package)."""
    import ksring

    path = str(Path(ksring.__file__).resolve().parents[1])
    env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, [path, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True)


def test_cli_process_loads_no_openssl(tmp_path):
    # A fresh interpreter: pytest's own process may have imported hashlib.
    argv = ["run", "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "o")]
    code = (
        "import json, sys\n"
        "from ksring.cli import main\n"
        f"code = main({argv!r})\n"
        "print(json.dumps([code, sorted({'_hashlib', '_ssl'} & set(sys.modules))]))\n"
    )
    proc = fresh_python("-c", code, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, []]


@pytest.mark.parametrize(
    "config, status, message",
    [
        (GOOD_CONFIG.replace("R0 = 6.0", "R0 = 6.0\nI0 = nan").encode(), 1, "config error: initial.I0: must be finite"),
        (GOOD_CONFIG.replace("v_c = 0.001", "v_c = 1e300").encode(), 2, "solver failure: radius law failed with "),
        (b"\xff" + GOOD_CONFIG.encode(), 3, "config parse error: "),
    ],
    ids=["config-error", "solver-failure", "unreadable-config"],
)
def test_console_script_exit_status(tmp_path, config, status, message):
    # entry() turns main()'s code into the process's exit status, with one
    # line on stderr and no traceback or output directory
    path, out = tmp_path / "run.ini", tmp_path / "o"
    path.write_bytes(config)
    proc = fresh_python("-m", "ksring.cli", "run", "--config", str(path), "--out", str(out), cwd=tmp_path)
    assert proc.returncode == status, proc.stderr
    assert proc.stderr.startswith(message) and proc.stderr.count("\n") == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_eoc_out_of_memory_exits_2(tmp_path, capsys):
    # 40 levels put the reference grid at J = 8 * 64 * 2**39 = 2**48 points:
    # NumPy refuses its 2 PiB sigma array at once, so nothing is allocated
    out = tmp_path / "eoc"
    argv = ["eoc", "--config", str(write_config(tmp_path, CRITERION_3_INI)), "--levels", "40", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("out of memory: ") and err.count("\n") == 1
    assert not out.exists()


def test_two_bad_fields_in_one_section_are_both_reported(tmp_path, capsys):
    text = GOOD_CONFIG.replace("delta = 4.0", "delta = -1").replace("alpha = 1.5", "alpha = 0.5")
    assert main(["run", "--config", str(write_config(tmp_path, text)), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert "config error: model.delta: must be > 0, got -1.0" in err
    assert "config error: model.alpha: must be > 1, got 0.5" in err


def test_readme_example_sets_every_config_key():
    from ksring.config import KEYS

    assert README_KEYS == [(key.section, key.name) for key in KEYS]


@pytest.mark.parametrize("section, key", README_KEYS)
def test_every_key_reports_missing_and_unparseable(tmp_path, capsys, section, key):
    cfg_path = write_config(tmp_path, _edit_key(README_INI, key, None))
    argv = ["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]
    if key in REQUIRED_KEYS:
        assert main(argv) == 1
        assert capsys.readouterr().err == f"config error: {section}.{key}: missing\n"
    else:
        load_config(cfg_path)  # an optional key falls back to its default
    if key not in TEXT_KEYS:
        write_config(tmp_path, _edit_key(README_INI, key, f"{key} = 1.5x"))
        assert main(argv) == 1
        assert capsys.readouterr().err == f"config error: {section}.{key}: cannot parse '1.5x'\n"
    assert not (tmp_path / "o").exists()


def test_eoc_checks_admissibility_at_the_coarsest_level(tmp_path, capsys):
    # k = T/J passes the bound at the finest level (J = 256) but not at the
    # coarsest (J = 64); nothing runs and nothing is written
    text = """\
[model]
delta = 0.1
alpha = 3
v_c = 0.01

[grid]
J = 64
k = 0.25
T = 16

[initial]
R0 = 6
amplitudes = 0.01
modes = 2
"""
    out = tmp_path / "eoc"
    assert main(["eoc", "--config", str(write_config(tmp_path, text)), "--levels", "3", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error: eoc")
    assert not (out / "eoc.json").exists()


# --- rejected input ----------------------------------------------------------


@pytest.mark.parametrize(
    "where, line, bad_line",
    [
        ("model.delta", "delta = 4.0", "delta = inf"),
        ("model.alpha", "alpha = 1.5", "alpha = inf"),
        ("model.v_c", "v_c = 0.001", "v_c = inf"),
        ("initial.R0", "R0 = 6.0", "R0 = inf"),
        ("initial.I0", "R0 = 6.0", "R0 = 6.0\nI0 = nan"),
        ("initial.I0", "R0 = 6.0", "R0 = 6.0\nI0 = -inf"),
        ("initial.amplitudes", "amplitudes = 0.1, 0.1", "amplitudes = 0.1, nan"),
    ],
    ids=["delta-inf", "alpha-inf", "v_c-inf", "R0-inf", "I0-nan", "I0-minus-inf", "amplitude-nan"],
)
def test_non_finite_input_is_a_config_error(tmp_path, capsys, where, line, bad_line):
    out = tmp_path / "o"
    path = write_config(tmp_path, GOOD_CONFIG.replace(line, bad_line))
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {where}: must be finite, got ")
    assert not out.exists()


@pytest.mark.parametrize("where, line, bad_line", [
    ("grid.k", "k = 0.01", "k = inf"),
    ("grid.k", "k = 0.01", "k = nan"),
    ("grid.k", "k = 0.01", "k = -inf"),
    ("grid.T", "T = 0.5", "T = inf"),
    ("grid.T", "T = 0.5", "T = nan"),
])
def test_non_finite_time_grid_is_a_config_error(tmp_path, capsys, where, line, bad_line):
    # a non-finite k is named as such, not as a T that is no multiple of it
    out = tmp_path / "o"
    path = write_config(tmp_path, GOOD_CONFIG.replace(line, bad_line))
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {where}: must be finite, got ")
    assert not out.exists()


def test_emit_u_without_v_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "o"
    path = write_config(tmp_path, GOOD_CONFIG + "emit = u, means\n")
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error: output.emit: u needs v")
    assert not out.exists()


def test_duplicate_emit_entries_are_a_config_error(tmp_path, capsys):
    # a repeated artifact changed config_hash and nothing else, as repeated modes would
    out = tmp_path / "o"
    path = write_config(tmp_path, GOOD_CONFIG + "emit = v, v, u, curve, means, spectrum\n")
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: output.emit: artifacts must be distinct, got ['v', 'v', 'u', 'curve', 'means', 'spectrum']"]
    assert not out.exists()


@pytest.mark.parametrize("m_max", ["1", "0"])
def test_stability_map_needs_m_max_two(tmp_path, capsys, m_max):
    out = tmp_path / "map"
    argv = ["stability-map", "--config", str(write_config(tmp_path)), "--out", str(out), "--mmax", m_max]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("config error: stability-map:")
    assert not out.exists()



@pytest.mark.parametrize("rmax", ["inf", "1e200", "1e100", "1e-310"])
def test_stability_map_rejects_radii_with_non_finite_curves(tmp_path, capsys, rmax):
    # inf fails the flag check; 1e200 and 1e100 overflow delta_m or lambda_m
    # and 1e-310 underflows R^4, each a config error before any output
    out = tmp_path / "map"
    argv = ["stability-map", "--config", str(write_config(tmp_path)), "--out", str(out),
            "--rmax", rmax, "--samples", "5"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: stability-map:")
    assert "Traceback" not in err
    if rmax != "inf":
        assert "not finite at R = " in err
    assert not out.exists()


def test_stability_map_equals_a_python_float_loop(tmp_path):
    # the NumPy scalar radii of cmd_stability_map give the bits of Python floats
    params = ModelParams(delta=4.0, alpha=1.5, v_c=0.001, R0=6.0)
    out = tmp_path / "map"
    cmd_stability_map(params, out, r_min=0.0, r_max=30.0, samples=121, m_max=7)
    lines = ["R," + ",".join(f"delta_m{m}" for m in range(2, 8))]
    entries = []
    for R in np.linspace(0.0, 30.0, 121).tolist():
        deltas = [neutral_delta(m, R, params) if R > 0 else 0.0 for m in range(2, 8)]
        lines.append(",".join(format(x, ".17g") for x in [R] + deltas))
        if R > 0:
            rep = spectral_report(R, params, 7)
            entries.append({"R": R, "unstable_modes": rep.unstable_modes, "predicted_dominant": rep.predicted_dominant})
    assert len(entries) == 120 and entries[0]["R"] == 0.25
    assert (out / "neutral_curves.csv").read_text() == "\n".join(lines) + "\n"
    expected = {
        "params": {"delta": 4.0, "alpha": 1.5, "v_c": 0.001},
        "R_star": critical_radius(params),
        "m_max": 7,
        "spectral": entries,
    }
    assert (out / "stability.json").read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_infinite_reference_tol_is_a_config_error(tmp_path, capsys):
    # inf passes "> 0" but would accept every reference step after one sweep
    cfg_path = write_config(tmp_path, GOOD_CONFIG + "[solver]\nreference_tol = inf\n")
    out = tmp_path / "eoc"
    assert main(["eoc", "--config", str(cfg_path), "--out", str(out), "--levels", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: solver.reference_tol: must be finite")
    assert not out.exists()

# --- v0_method = centered ----------------------------------------------------

CENTERED = "\n[solver]\nv0_method = centered\n"


def test_centered_v0_converges_to_analytic_at_second_order(tmp_path):
    # the centered difference of u0 differs from the analytic u0' by O(h^2)
    text = GOOD_CONFIG.replace("modes = 2, 3", "modes = 2, 5") + CENTERED
    errors = []
    for J in (64, 128, 256):
        cfg = load_config(write_config(tmp_path, text.replace("J = 64", f"J = {J}")))
        assert cfg.v0_method == "centered"
        exact = replace(cfg, v0_method="analytic").initial_v().values
        errors.append(np.max(np.abs(cfg.initial_v().values - exact)))
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    assert all(3.8 < r < 4.1 for r in ratios), ratios


def test_run_with_centered_v0(tmp_path):
    out = tmp_path / "o"
    path = write_config(tmp_path, GOOD_CONFIG + CENTERED)
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["solver"]["v0_method"] == "centered"
    assert report["config_hash"] == load_config(path).config_hash()
    assert report["config_hash"] != load_config(write_config(tmp_path, name="analytic.ini")).config_hash()


def test_non_utf8_config_is_a_parse_error(tmp_path, capsys):
    # read as UTF-8 whatever the locale: a 0xff byte is an unreadable config
    path = tmp_path / "latin.ini"
    path.write_bytes(GOOD_CONFIG.replace("[model]", "[model]\n; caf\xe9").encode("latin-1") + b"\xff\n")
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config parse error: ") and "UTF-8" in err
    assert not out.exists()


def test_overflowing_initial_data_fails_at_step_0_without_warnings(tmp_path, capsys):
    # V^0 is checked under the step loop's error state before any step runs
    text = GOOD_CONFIG.replace("amplitudes = 0.1, 0.1", "amplitudes = 1e200").replace("modes = 2, 3", "modes = 5")
    out = tmp_path / "huge"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", "--config", str(write_config(tmp_path, text)), "--out", str(out)])
    assert code == 2
    assert "solver failure at step 0: " in capsys.readouterr().err
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert not out.exists()


def test_eoc_converged_reference_takes_one_sweep_a_step(tmp_path):
    # the quadratic predictor is within reference_tol of each step on the
    # criterion-3 ladder, so its J = 2048 reference confirms it in one sweep
    # (two a step when the sweeps started at V^n)
    out = tmp_path / "eoc"
    assert main(["eoc", "--config", str(write_config(tmp_path, CRITERION_3_INI)), "--out", str(out)]) == 0
    report = json.loads((out / "eoc.json").read_text())
    N = report["eoc"]["reference_J"]  # k = T/J with T = 1
    assert N == 2048 and report["timing"]["reference_sweeps"] <= 1.01 * N


def test_eoc_with_zero_initial_data_is_a_config_error(tmp_path, capsys):
    # every error of the ladder is 0, so no order is defined
    text = GOOD_CONFIG.replace("J = 64", "J = 16").replace("k = 0.01", "k = 0.0625").replace("T = 0.5", "T = 1")
    text = text.replace("amplitudes = 0.1, 0.1", "amplitudes = 0.0").replace("modes = 2, 3", "modes = 2")
    out = tmp_path / "eoc"
    assert main(["eoc", "--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "config error: eoc: level J = 16 has err_v, err_u, err_v_newton = 0, so its order is undefined\n"
    assert not out.exists()


def test_eoc_needs_three_levels(tmp_path, capsys):
    out = tmp_path / "eoc"
    assert main(["eoc", "--config", str(write_config(tmp_path)), "--levels", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "config error: eoc.levels: must be >= 3\n"
    assert not out.exists()


def test_spectrum_only_run_reports_the_spectral_block_of_a_full_run(tmp_path):
    # with no snapshot, curve or mean, u(T) is reconstructed for the spectrum alone
    reports = {}
    for name, extra in (("full", ""), ("spectrum", "emit = spectrum\n")):
        out = tmp_path / name
        assert main(["run", "--config", str(write_config(tmp_path, GOOD_CONFIG + extra)), "--out", str(out)]) == 0
        reports[name] = json.loads((out / "report.json").read_text())
    assert sorted(p.name for p in (tmp_path / "spectrum").iterdir()) == ["report.json"]
    assert reports["spectrum"]["spectral"] == reports["full"]["spectral"]


def test_eoc_solve_seconds_fit_in_its_wall_time(tmp_path):
    out = tmp_path / "eoc"
    cfg_path = write_config(tmp_path, GOOD_CONFIG.replace("J = 64", "J = 16"))
    assert main(["eoc", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = json.loads((out / "eoc.json").read_text())
    timing = report["timing"]
    seconds = [timing["reference_solve_s"]]
    seconds += [level[key] for level in timing["levels"] for key in ("reference_solve_s", "newton_solve_s")]
    assert all(s > 0 for s in seconds)
    assert sum(seconds) <= report["wall_time_seconds"]


def _count_admissibility_checks(monkeypatch):
    # one counter behind every module's name for the check
    import ksring.cli
    import ksring.experiments
    import ksring.solver

    calls = []
    check = ksring.solver.check_admissibility

    def counted(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    for module in (ksring.cli, ksring.experiments, ksring.solver):
        monkeypatch.setattr(module, "check_admissibility", counted)
    return calls


@pytest.mark.parametrize("forced", [False, True])
def test_run_checks_admissibility_once(tmp_path, monkeypatch, forced):
    # cmd_run checks before the run starts; the run itself does not check again
    text = GOOD_CONFIG.replace("R0 = 6.0", "R0 = 2.0").replace("T = 0.5", "T = 0.1") if forced else GOOD_CONFIG
    calls = _count_admissibility_checks(monkeypatch)
    force = ["--force"] if forced else []
    assert main(["run", "--config", str(write_config(tmp_path, text)), "--out", str(tmp_path / "o"), *force]) == 0
    assert len(calls) == 1
    assert json.loads((tmp_path / "o" / "report.json").read_text())["admissibility"]["pass"] is not forced


def test_eoc_checks_admissibility_once(tmp_path, monkeypatch):
    # the coarsest level's check covers every level and the reference
    calls = _count_admissibility_checks(monkeypatch)
    cfg_path = write_config(tmp_path, GOOD_CONFIG.replace("J = 64", "J = 16"))
    assert main(["eoc", "--config", str(cfg_path), "--levels", "3", "--out", str(tmp_path / "eoc")]) == 0
    assert len(calls) == 1
    assert calls[0][1].k == 0.5 / 16


SPECTRUM_ALONE = GOOD_CONFIG.replace("stride = 25", "stride = 25\nemit = spectrum")


def test_spectrum_alone_reconstructs_u_once_at_step_N(tmp_path, monkeypatch):
    # u(T) has one reconstruction path: the step loop at n == N, whatever else is emitted
    import ksring.cli

    steps = []
    real = ksring.cli.reconstruct_u

    def recording(traj, I0, n, v):
        steps.append(n)
        return real(traj, I0, n, v)

    monkeypatch.setattr(ksring.cli, "reconstruct_u", recording)
    alone = main(["run", "--config", str(write_config(tmp_path, SPECTRUM_ALONE)), "--out", str(tmp_path / "a")])
    assert alone == 0 and steps == [50]
    assert main(["run", "--config", str(write_config(tmp_path, name="all.ini")), "--out", str(tmp_path / "b")]) == 0
    assert steps == [50, 0, 25, 50]
    spectral = [json.loads((tmp_path / d / "report.json").read_text())["spectral"] for d in "ab"]
    assert spectral[0] == spectral[1]
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) == ["report.json"]


def test_eoc_files_are_written_from_their_records_fields(tmp_path):
    from dataclasses import fields

    from ksring.experiments import EocLevel, EocReport

    out = tmp_path / "eoc"
    config = write_config(tmp_path, CRITERION_3_INI.replace("J = 64", "J = 8"))
    assert main(["eoc", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "eoc.csv").read_text().splitlines()[0].split(",") == [f.name for f in fields(EocLevel)]
    block = json.loads((out / "eoc.json").read_text())["eoc"]
    assert set(block) == {f.name for f in fields(EocReport)} - {"timing"}
    assert [set(level) for level in block["levels"]] == [{f.name for f in fields(EocLevel)}] * 3


def test_wavenumber_suite_runs_the_solver_config_main_builds(tmp_path, monkeypatch, capsys):
    # the command's rows are the function's with the SolverConfig of --jn, which every run is given
    import ksring.cli
    import ksring.experiments

    sizes = dict(J=32, k=0.05, T=0.5)
    monkeypatch.setattr(ksring.cli, "wavenumber_suite", functools.partial(wavenumber_suite, **sizes))
    solvers = []
    real_integrate = ksring.experiments.integrate

    def recording_integrate(params, tgrid, grid, solver, *args, **kwargs):
        solvers.append(solver)
        return real_integrate(params, tgrid, grid, solver, *args, **kwargs)

    monkeypatch.setattr(ksring.experiments, "integrate", recording_integrate)
    out = tmp_path / "suite"
    assert main(["wavenumber-suite", "--jn", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    assert solvers == [SolverConfig(newton_iters=2)] * 5
    written = json.loads((out / "wavenumber_suite.json").read_text())
    assert written["jn"] == 2
    rows = wavenumber_suite(**sizes, solver=SolverConfig(newton_iters=2))
    assert written["rows"] == json.loads(json.dumps(rows))


@pytest.mark.parametrize(
    "command, edit, extra, message",
    [
        ("run", [("k = 0.01", "k = 1e-300"), ("T = 0.5", "T = 1")], [], "grid.T: must be at most 2**52 steps of k"),
        ("run", [("J = 64", "J = 1000000000000000000000000000000")], [], "grid.J: must be at most 2**53"),
        ("eoc", [("J = 64", "J = 8"), ("modes = 2, 3", "modes = 2"), ("0.1, 0.1", "0.1")], ["--levels", "62"],
         "eoc.levels: 62 levels need a reference run of 8 * 2**64 points"),
        ("stability-map", [], ["--samples", "1000000000000000000000"], "--samples: must be at most 2**53"),
        ("stability-map", [], ["--samples", "3", "--mmax", "1000000000000000000000"],
         "--mmax: the map's samples * mmax cells must be at most 2**53"),
    ],
    ids=["run-N", "run-J", "eoc-levels", "map-samples", "map-mmax"],
)
def test_oversize_counts_are_one_config_error(tmp_path, capsys, command, edit, extra, message):
    # each count is refused by its bound before anything of its size is allocated
    text = functools.reduce(lambda text, pair: text.replace(*pair), edit, GOOD_CONFIG)
    out = tmp_path / "o"
    assert main([command, "--config", str(write_config(tmp_path, text)), *extra, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}") and err.count("\n") == 1, err
    assert not out.exists()


def test_write_csv_formats_at_most_a_block_of_values_at_once(tmp_path):
    # a wide row is written in pieces: two rows of 100 000 columns never
    # build their 200 000 values at once (the whole table took 13.6 MB at 256
    # rows a block, under the bound of rows alone)
    import tracemalloc

    from ksring.cli import write_csv

    table = np.arange(200_000, dtype=float).reshape(2, 100_000) / 7.0
    header = [f"c{j}" for j in range(100_000)]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        write_csv(tmp_path / "wide.csv", header, table)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000, peak  # the header and the row formats take about 2.8 MB of it
    _per_value_csv(tmp_path / "old.csv", header, table.tolist())
    assert (tmp_path / "wide.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_config_with_byte_order_mark_runs(tmp_path, capsys):
    # an editor's UTF-8 byte-order mark is not part of the config: same run, same hash
    path = tmp_path / "bom.ini"
    path.write_bytes(b"\xef\xbb\xbf" + GOOD_CONFIG.encode())
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    written = json.loads((out / "report.json").read_text())["config_hash"]
    assert written == load_config(write_config(tmp_path)).config_hash()
