"""Command line driver: configuration, experiment orchestration, file output.

Subcommands
    run                integrate one configuration, emit snapshots and report
    eoc                self-convergence ladder under simultaneous (h, k) halving
    stability-map      neutral curves and per-radius unstable mode sets
    wavenumber-suite   the five desk-scale expanding-circle mode selection runs

Configs are flat INI files with sections [model], [grid], [initial],
[solver], [output]; lists are comma separated, and a section or key not
listed in CONFIG_KEYS is an error.  Example:

    [model]
    delta = 4.0
    alpha = 1.5
    v_c = 0.001

    [grid]
    J = 256
    k = 0.01
    T = 100

    [initial]
    R0 = 6.0
    amplitudes = 0.1, 0.1, 0.1, 0.1
    modes = 2, 3, 4, 5

Exit codes: 0 success, 1 invalid configuration or arguments, 2 solver
failure, 3 I/O or unreadable config file.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field, replace
from pathlib import Path

import numpy as np

from .field import (
    GridSpec,
    PeriodicField,
    centered_difference,
    norm_h,
    sample_cosine_sum,
    sample_cosine_sum_dsigma,
)
from .params import ModelParams, SolverConfig, TimeGrid
from .radius import RadiusLaw
from .reconstruct import mean_I_path, reconstruct_u, curve_points
from .solver import AdmissibilityReport, SolverError, Trajectory, check_admissibility, run
from .stability import (
    critical_radius,
    measured_dominant_mode,
    neutral_delta,
    spectral_report,
)

EMIT_CHOICES = ("v", "u", "curve", "means", "spectrum")
# Every key a config may set, by section, as configparser lowercases them.
CONFIG_KEYS = {
    "model": ("delta", "alpha", "v_c"),
    "grid": ("j", "k", "t"),
    "initial": ("r0", "amplitudes", "modes", "i0"),
    "solver": ("jn", "v0_method", "reference_tol"),
    "output": ("dir", "stride", "emit"),
}
ENV_OUT = "KSRING_OUT"
SPECTRAL_M_MAX = 32
# Rows per formatted write in write_csv: bounds the string built at once.
CSV_BLOCK_ROWS = 512


class ConfigError(ValueError):
    """Validation failure; carries one message per offending field."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    grid: GridSpec
    tgrid: TimeGrid
    modes: tuple[tuple[float, int], ...]
    I0: float
    jn: int
    v0_method: str
    reference_tol: float
    out_dir: str | None
    stride: int
    emit: tuple[str, ...]

    def solver_config(self, jn: int | None = None) -> SolverConfig:
        return SolverConfig(
            newton_iters=jn if jn is not None else self.jn,
            reference_tol=self.reference_tol,
        )

    def to_dict(self) -> dict:
        return {
            "model": {
                "delta": self.params.delta,
                "alpha": self.params.alpha,
                "v_c": self.params.v_c,
            },
            "grid": {"J": self.grid.J, "k": self.tgrid.k, "T": self.tgrid.T},
            "initial": {
                "R0": self.params.R0,
                "modes": [[p, m] for p, m in self.modes],
                "I0": self.I0,
            },
            "solver": {
                "jn": self.jn,
                "v0_method": self.v0_method,
                "reference_tol": self.reference_tol,
            },
            "output": {"stride": self.stride, "emit": list(self.emit)},
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def initial_v(self) -> PeriodicField:
        if self.v0_method == "centered":
            return centered_difference(sample_cosine_sum(self.grid, self.modes))
        return sample_cosine_sum_dsigma(self.grid, self.modes)


def _get(cp: configparser.ConfigParser, section: str, key: str, cast, problems: list[str], default=None):
    if not cp.has_option(section, key):
        if default is not None or (default is None and cast is str):
            return default
        problems.append(f"{section}.{key}: missing")
        return None
    raw = cp.get(section, key)
    try:
        return cast(raw)
    except (TypeError, ValueError):
        problems.append(f"{section}.{key}: cannot parse {raw!r}")
        return None


def _float_list(raw: str) -> list[float]:
    return [float(x) for x in raw.split(",") if x.strip()]


def _int_list(raw: str) -> list[int]:
    return [int(x) for x in raw.split(",") if x.strip()]


def load_config(path: str | Path) -> RunConfig:
    """Parses and validates a run configuration.

    Raises OSError if the file is missing, configparser.Error if it is not
    INI at all, and ConfigError listing every field level problem.
    """
    path = Path(path)
    text = path.read_text()
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.read_string(text, source=str(path))

    problems = [f"{s}: unknown section" for s in cp.sections() if s not in CONFIG_KEYS]
    for s in cp.sections():
        problems += [f"{s}.{key}: unknown key" for key in cp.options(s) if s in CONFIG_KEYS and key not in CONFIG_KEYS[s]]
    for section in ("model", "grid", "initial"):
        if not cp.has_section(section):
            problems.append(f"{section}: section missing")
    if problems:
        raise ConfigError(problems)

    delta = _get(cp, "model", "delta", float, problems)
    alpha = _get(cp, "model", "alpha", float, problems)
    v_c = _get(cp, "model", "v_c", float, problems)
    J = _get(cp, "grid", "J", int, problems)
    k = _get(cp, "grid", "k", float, problems)
    T = _get(cp, "grid", "T", float, problems)
    R0 = _get(cp, "initial", "R0", float, problems)
    amplitudes = _get(cp, "initial", "amplitudes", _float_list, problems)
    mode_nums = _get(cp, "initial", "modes", _int_list, problems)
    I0 = _get(cp, "initial", "I0", float, problems, default=0.0)
    jn = _get(cp, "solver", "jn", int, problems, default=3) if cp.has_section("solver") else 3
    v0_method = (
        _get(cp, "solver", "v0_method", str, problems) if cp.has_section("solver") else None
    ) or "analytic"
    reference_tol = (
        _get(cp, "solver", "reference_tol", float, problems, default=1e-13)
        if cp.has_section("solver")
        else 1e-13
    )
    out_dir = cp.get("output", "dir", fallback=None)
    stride = (
        _get(cp, "output", "stride", int, problems, default=1)
        if cp.has_section("output")
        else 1
    )
    emit_raw = cp.get("output", "emit", fallback="v, u, curve, means, spectrum")
    emit = tuple(x.strip() for x in emit_raw.split(",") if x.strip())

    if None in (delta, alpha, v_c, J, k, T, R0, amplitudes, mode_nums):
        raise ConfigError(problems)

    def check(ok: bool, message: str):
        if not ok:
            problems.append(message)

    check(delta > 0, f"model.delta: must be > 0, got {delta}")
    check(alpha > 1, f"model.alpha: must be > 1, got {alpha}")
    check(v_c > 0, f"model.v_c: must be > 0, got {v_c}")
    check(J >= 8 and J % 2 == 0, f"grid.J: must be even and >= 8, got {J}")
    check(k > 0, f"grid.k: must be > 0, got {k}")
    check(T > 0, f"grid.T: must be > 0, got {T}")
    if k > 0 and T > 0:
        N = round(T / k)
        check(
            N >= 1 and abs(N * k - T) <= 1e-12 * max(1.0, T),
            f"grid.T: must be an integer multiple of k, got T={T}, k={k}",
        )
    check(R0 > 0, f"initial.R0: must be > 0, got {R0}")
    check(len(mode_nums) > 0, "initial.modes: must be nonempty")
    check(
        len(amplitudes) == len(mode_nums),
        f"initial.amplitudes: length {len(amplitudes)} does not match modes length {len(mode_nums)}",
    )
    check(all(m >= 2 for m in mode_nums), f"initial.modes: all modes must be >= 2, got {mode_nums}")
    check(len(set(mode_nums)) == len(mode_nums), f"initial.modes: modes must be distinct, got {mode_nums}")
    if J and mode_nums:
        check(
            all(m < J // 2 for m in mode_nums),
            f"initial.modes: modes must be below J/2 = {J // 2}, got {mode_nums}",
        )
    check(jn >= 1, f"solver.jn: must be >= 1, got {jn}")
    check(reference_tol > 0, f"solver.reference_tol: must be > 0, got {reference_tol}")
    check(
        v0_method in ("analytic", "centered"),
        f"solver.v0_method: must be analytic or centered, got {v0_method!r}",
    )
    check(stride >= 1, f"output.stride: must be >= 1, got {stride}")
    for e in emit:
        check(e in EMIT_CHOICES, f"output.emit: unknown artifact {e!r}")
    if problems:
        raise ConfigError(problems)

    return RunConfig(
        params=ModelParams(delta=delta, alpha=alpha, v_c=v_c, R0=R0),
        grid=GridSpec(J),
        tgrid=TimeGrid.from_horizon(T, k),
        modes=tuple(zip(amplitudes, mode_nums)),
        I0=I0,
        jn=jn,
        v0_method=v0_method,
        reference_tol=reference_tol,
        out_dir=out_dir,
        stride=stride,
        emit=emit,
    )


def resolve_out_dir(flag_value: str | None, cfg_value: str | None) -> Path:
    if flag_value:
        return Path(flag_value)
    if cfg_value:
        return Path(cfg_value)
    return Path(os.environ.get(ENV_OUT, "out"))


def write_csv(path: Path, header: list[str], rows) -> None:
    """Writes the header and the rows (a 2-D array or any iterable of rows),
    every value as %.17g, which round-trips a double exactly.  Each block of
    CSV_BLOCK_ROWS rows is one `%` format, so no Python loop runs per value."""
    data = np.asarray(rows if isinstance(rows, np.ndarray) else list(rows), dtype=float)
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, len(data), CSV_BLOCK_ROWS):
            block = data[start : start + CSV_BLOCK_ROWS]
            f.write((line * len(block)) % tuple(block.ravel().tolist()))


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _admissibility_dict(report) -> dict:
    return {
        "bounds": {"R0_min": report.r0_bound, "k_max": report.k_bound, "R_T": report.R_T},
        "pass": report.passed,
        "R0_pass": report.r0_pass,
        "k_pass": report.k_pass,
    }


def emit_run_outputs(
    cfg: RunConfig,
    traj: Trajectory,
    law: RadiusLaw,
    admissibility: AdmissibilityReport,
    out: Path,
    solve_s: float,
) -> dict:
    """Writes the CSV files and report.json of one run; each stored step's
    height is reconstructed once and shared by its snapshot, its curve and,
    at step N, the spectral report."""
    out.mkdir(parents=True, exist_ok=True)
    N = traj.tgrid.N
    emit = set(cfg.emit)
    seconds = {"reconstruct_s": 0.0, "write_s": 0.0}

    @contextmanager
    def timer(phase: str):
        t0 = time.perf_counter()
        yield
        seconds[phase] += time.perf_counter() - t0

    if "means" in emit:
        with timer("reconstruct_s"):
            I_path = mean_I_path(traj, law, cfg.I0)
        with timer("write_s"):
            steps = np.arange(N + 1)
            write_csv(
                out / "means.csv",
                ["n", "t", "S_n", "I_tilde"],
                np.column_stack((steps, steps * traj.tgrid.k, traj.S, I_path)),
            )

    width = len(str(N))
    sigma = traj.grid.sigma
    final_u = None
    for n in traj.stored_steps():
        tag = str(n).zfill(width)
        u_field = None
        if "u" in emit or "curve" in emit:
            with timer("reconstruct_s"):
                u_field = reconstruct_u(traj, law, cfg.I0, n)
            if n == N:
                final_u = u_field
        if "v" in emit:
            columns = (sigma, traj.v(n).values) + ((u_field.values,) if "u" in emit else ())
            with timer("write_s"):
                write_csv(out / f"snapshot_{tag}.csv", ["sigma", "v", "u"][: len(columns)], np.column_stack(columns))
        if "curve" in emit:
            with timer("reconstruct_s"):
                pts = curve_points(traj, law, n, cfg.I0, u=u_field)
            with timer("write_s"):
                write_csv(out / f"curve_{tag}.csv", ["x", "y"], pts)

    report = {
        "params": cfg.to_dict()["model"] | {"R0": cfg.params.R0},
        "grid": cfg.to_dict()["grid"] | {"N": N},
        "solver": {"method": traj.method, "jn": cfg.jn, "v0_method": cfg.v0_method},
        "admissibility": _admissibility_dict(admissibility),
        "max_abs_mean": float(np.max(np.abs(traj.S))),
        "wall_time_seconds": solve_s,
        "config_hash": cfg.config_hash(),
    }
    if "spectrum" in emit:
        R_T = float(traj.R_nodes[N])
        if final_u is None:
            with timer("reconstruct_s"):
                final_u = reconstruct_u(traj, law, cfg.I0, N)
        rep = spectral_report(R_T, cfg.params, SPECTRAL_M_MAX, probe=final_u)
        rep0 = spectral_report(cfg.params.R0, cfg.params, SPECTRAL_M_MAX)
        report["spectral"] = {
            "R_star": rep.R_star,
            "R_T": R_T,
            "unstable_at_R0": rep0.unstable_modes,
            "predicted_dominant_at_R0": rep0.predicted_dominant,
            "unstable_at_R_T": rep.unstable_modes,
            "measured_dominant": rep.measured_dominant,
        }
    report["timing"] = {"solve_s": solve_s} | seconds
    _write_json(out / "report.json", report)
    return report


def cmd_run(cfg: RunConfig, out: Path, jn: int | None = None, force: bool = False) -> dict:
    law = RadiusLaw(cfg.params)
    admissibility = check_admissibility(cfg.params, cfg.tgrid, law)
    if not admissibility.passed:
        if not force:
            raise ConfigError(
                [
                    "admissibility: "
                    f"R0 > {admissibility.r0_bound:.6g} is {admissibility.r0_pass}, "
                    f"k < {admissibility.k_bound:.6g} is {admissibility.k_pass}"
                ]
            )
        print("warning: admissibility failed, continuing because of --force", file=sys.stderr)
    t0 = time.perf_counter()
    traj = run(
        cfg.params,
        cfg.tgrid,
        cfg.grid,
        cfg.solver_config(jn),
        cfg.initial_v(),
        law=law,
        method="newton",
        store_stride=cfg.stride,
        require_admissible=not force,
    )
    solve_s = time.perf_counter() - t0
    return emit_run_outputs(cfg, traj, law, admissibility, out, solve_s)


@dataclass
class EocLevel:
    J: int
    k: float
    err_v: float
    err_u: float
    err_v_newton: float
    newton_gap: float


@dataclass
class EocReport:
    levels: list[EocLevel] = dc_field(default_factory=list)
    eoc_v: list[float] = dc_field(default_factory=list)
    eoc_u: list[float] = dc_field(default_factory=list)
    eoc_v_newton: list[float] = dc_field(default_factory=list)
    reference_J: int = 0

    def to_dict(self) -> dict:
        return {
            "reference_J": self.reference_J,
            "levels": [vars(l) for l in self.levels],
            "eoc_v": self.eoc_v,
            "eoc_u": self.eoc_u,
            "eoc_v_newton": self.eoc_v_newton,
        }


def _subsampled_err(fine: np.ndarray, coarse: np.ndarray, h_coarse: float) -> float:
    stride = fine.size // coarse.size
    d = coarse - fine[::stride]
    return math.sqrt(h_coarse * float(np.dot(d, d)))


def eoc_ladder(cfg: RunConfig, levels: int = 3, jn: int | None = None) -> EocReport:
    """Self-convergence ladder: J doubles and k = T/J at every level, errors
    measured at T against a reference at eight times the finest grid."""
    if levels < 3:
        raise ConfigError(["eoc.levels: must be >= 3"])
    T = cfg.tgrid.T
    Js = [cfg.grid.J * 2**l for l in range(levels)]
    J_ref = 8 * Js[-1]
    law = RadiusLaw(cfg.params)
    finest = TimeGrid.from_horizon(T, T / Js[-1])
    adm = check_admissibility(cfg.params, finest, law)
    if not adm.passed:
        raise ConfigError(["eoc: finest level fails admissibility"])

    solver_cfg = cfg.solver_config(jn)

    def one_run(J: int, method: str, stride: int) -> Trajectory:
        tg = TimeGrid.from_horizon(T, T / J)
        return run(
            cfg.params,
            tg,
            GridSpec(J),
            solver_cfg,
            replace(cfg, grid=GridSpec(J)).initial_v(),
            law=law,
            method=method,
            store_stride=stride,
        )

    ref = one_run(J_ref, "reference", J_ref)
    ref_v = ref.final().values
    ref_u = reconstruct_u(ref, law, cfg.I0, ref.tgrid.N).values

    report = EocReport(reference_J=J_ref)
    for J in Js:
        cn = one_run(J, "reference", 1)
        newton = one_run(J, "newton", 1)
        h = cn.grid.h
        gap = max(
            norm_h(
                PeriodicField(newton.snapshots[n] - cn.snapshots[n], h)
            )
            for n in range(cn.tgrid.N + 1)
        )
        err_v = _subsampled_err(ref_v, cn.final().values, h)
        err_u = _subsampled_err(
            ref_u, reconstruct_u(cn, law, cfg.I0, cn.tgrid.N).values, h
        )
        err_vn = _subsampled_err(ref_v, newton.final().values, h)
        report.levels.append(
            EocLevel(J=J, k=T / J, err_v=err_v, err_u=err_u, err_v_newton=err_vn, newton_gap=gap)
        )
    for a, b in zip(report.levels, report.levels[1:]):
        report.eoc_v.append(math.log2(a.err_v / b.err_v))
        report.eoc_u.append(math.log2(a.err_u / b.err_u))
        report.eoc_v_newton.append(math.log2(a.err_v_newton / b.err_v_newton))
    return report


def cmd_eoc(cfg: RunConfig, out: Path, levels: int = 3, jn: int | None = None) -> dict:
    t0 = time.perf_counter()
    ladder = eoc_ladder(cfg, levels=levels, jn=jn)
    wall = time.perf_counter() - t0
    out.mkdir(parents=True, exist_ok=True)
    write_csv(
        out / "eoc.csv",
        ["J", "k", "err_v", "err_u", "err_v_newton", "newton_gap"],
        (
            (l.J, l.k, l.err_v, l.err_u, l.err_v_newton, l.newton_gap)
            for l in ladder.levels
        ),
    )
    report = {
        "params": cfg.to_dict()["model"] | {"R0": cfg.params.R0},
        "grid": cfg.to_dict()["grid"],
        "eoc": ladder.to_dict(),
        "wall_time_seconds": wall,
        "config_hash": cfg.config_hash(),
    }
    _write_json(out / "eoc.json", report)
    return report


def cmd_stability_map(
    params: ModelParams,
    out: Path,
    r_min: float = 0.0,
    r_max: float = 30.0,
    samples: int = 121,
    m_max: int = 5,
) -> dict:
    if not (r_max > r_min >= 0.0) or samples < 2:
        raise ConfigError(["stability-map: need r_max > r_min >= 0 and samples >= 2"])
    out.mkdir(parents=True, exist_ok=True)
    rs = np.linspace(r_min, r_max, samples)
    header = ["R"] + [f"delta_m{m}" for m in range(2, m_max + 1)]
    rows = []
    for R in rs:
        row = [R] + [
            neutral_delta(m, R, params) if R > 0 else 0.0 for m in range(2, m_max + 1)
        ]
        rows.append(row)
    write_csv(out / "neutral_curves.csv", header, rows)
    entries = []
    for R in rs:
        if R <= 0:
            continue
        rep = spectral_report(float(R), params, max(m_max, 2))
        entries.append(
            {
                "R": float(R),
                "unstable_modes": rep.unstable_modes,
                "predicted_dominant": rep.predicted_dominant,
            }
        )
    report = {
        "params": {"delta": params.delta, "alpha": params.alpha, "v_c": params.v_c},
        "R_star": critical_radius(params),
        "m_max": m_max,
        "spectral": entries,
    }
    _write_json(out / "stability.json", report)
    return report


SUITE_MODE_SETS = {
    6.0: (2, 3, 4, 5),
    9.0: (3, 4, 5, 6),
    12.0: (4, 5, 6, 7),
    15.0: (5, 6, 7, 8),
    18.0: (6, 7, 8, 9),
}


def wavenumber_suite(
    J: int = 256,
    k: float = 0.01,
    T: float = 100.0,
    jn: int = 3,
    amplitude: float = 0.1,
    keep_trajectories: bool = False,
) -> list[dict]:
    """Runs the five expanding-circle selection experiments at desk scale.

    Passing criterion per row: the measured dominant mode of u(T) lies in the
    unstable set at R0, and equals the argmax growth rate mode whenever that
    mode carries nonzero initial amplitude.
    """
    rows = []
    for R0, mode_set in SUITE_MODE_SETS.items():
        params = ModelParams(delta=4.0, alpha=1.5, v_c=0.001, R0=R0)
        tgrid = TimeGrid.from_horizon(T, k)
        grid = GridSpec(J)
        law = RadiusLaw(params)
        pairs = tuple((amplitude, m) for m in mode_set)
        v0 = sample_cosine_sum_dsigma(grid, pairs)
        traj = run(
            params,
            tgrid,
            grid,
            SolverConfig(newton_iters=jn),
            v0,
            law=law,
            method="newton",
            store_stride=tgrid.N,
        )
        u_T = reconstruct_u(traj, law, 0.0, tgrid.N)
        measured = measured_dominant_mode(u_T)
        rep0 = spectral_report(R0, params, SPECTRAL_M_MAX)
        unstable = rep0.unstable_modes
        predicted = rep0.predicted_dominant
        seeded = predicted in mode_set
        ok = measured in unstable and (measured == predicted if seeded else True)
        row = {
            "R0": R0,
            "modes": list(mode_set),
            "unstable_at_R0": unstable,
            "predicted_dominant": predicted,
            "predicted_seeded": seeded,
            "measured_dominant": measured,
            "R_T": float(traj.R_nodes[-1]),
            "max_abs_mean": float(np.max(np.abs(traj.S))),
            "pass": ok,
        }
        if keep_trajectories:
            row["trajectory"] = traj
        rows.append(row)
    return rows


def cmd_wavenumber_suite(out: Path, jn: int = 3) -> dict:
    t0 = time.perf_counter()
    rows = wavenumber_suite(jn=jn)
    wall = time.perf_counter() - t0
    out.mkdir(parents=True, exist_ok=True)
    report = {"rows": rows, "wall_time_seconds": wall, "all_pass": all(r["pass"] for r in rows)}
    _write_json(out / "wavenumber_suite.json", report)
    print(f"{'R0':>5} {'modes':>14} {'unstable':>18} {'pred':>5} {'meas':>5} {'pass':>5}")
    for r in rows:
        print(
            f"{r['R0']:>5g} {str(r['modes']):>14} {str(r['unstable_at_R0']):>18} "
            f"{r['predicted_dominant']:>5} {r['measured_dominant']:>5} {str(r['pass']):>5}"
        )
    return report


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ksring", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="integrate one configuration")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--force", action="store_true", help="continue past admissibility failure")
    run_p.add_argument("--jn", type=int, default=None)

    eoc_p = sub.add_parser("eoc", help="self-convergence ladder")
    eoc_p.add_argument("--config", required=True)
    eoc_p.add_argument("--out", default=None)
    eoc_p.add_argument("--levels", type=int, default=3)
    eoc_p.add_argument("--jn", type=int, default=None)

    map_p = sub.add_parser("stability-map", help="neutral curves and unstable sets")
    map_p.add_argument("--config", required=True)
    map_p.add_argument("--out", default=None)
    map_p.add_argument("--rmin", type=float, default=0.0)
    map_p.add_argument("--rmax", type=float, default=30.0)
    map_p.add_argument("--samples", type=int, default=121)
    map_p.add_argument("--mmax", type=int, default=5)

    suite_p = sub.add_parser("wavenumber-suite", help="desk-scale mode selection runs")
    suite_p.add_argument("--out", default=None)
    suite_p.add_argument("--jn", type=int, default=3)
    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        if e.code == 2:  # argparse usage error: invalid arguments
            return 1
        raise
    try:
        if getattr(args, "jn", None) is not None and args.jn < 1:
            raise ConfigError([f"solver.jn: must be >= 1, got {args.jn}"])
        if args.command == "wavenumber-suite":
            out = resolve_out_dir(args.out, None)
            cmd_wavenumber_suite(out, jn=args.jn)
            return 0
        cfg = load_config(args.config)
        out = resolve_out_dir(args.out, cfg.out_dir)
        if args.command == "run":
            report = cmd_run(cfg, out, jn=args.jn, force=args.force)
            print(
                f"run complete: N={report['grid']['N']} steps, "
                f"max |S_n| = {report['max_abs_mean']:.3e}, report {out / 'report.json'}"
            )
        elif args.command == "eoc":
            report = cmd_eoc(cfg, out, levels=args.levels, jn=args.jn)
            print(f"eoc_v per pair: {report['eoc']['eoc_v']}")
            print(f"eoc_u per pair: {report['eoc']['eoc_u']}")
        elif args.command == "stability-map":
            cmd_stability_map(
                cfg.params,
                out,
                r_min=args.rmin,
                r_max=args.rmax,
                samples=args.samples,
                m_max=args.mmax,
            )
            print(f"stability map written to {out}")
        return 0
    except ConfigError as e:
        for problem in e.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 1
    except configparser.Error as e:
        print(f"config parse error: {e}", file=sys.stderr)
        return 3
    except SolverError as e:
        step = f" at step {e.step}" if e.step is not None else ""
        print(f"solver failure{step}: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
