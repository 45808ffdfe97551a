"""Command line driver: argument parsing, file output and exit codes.

Subcommands
    run                integrate one configuration, emit snapshots and report
    eoc                self-convergence ladder under simultaneous (h, k) halving
    stability-map      neutral curves and per-radius unstable mode sets
    wavenumber-suite   the five desk-scale expanding-circle mode selection runs

Configs are flat INI files read by ksring.config.load_config; the README
shows a complete example.

Exit codes: 0 success, 1 invalid configuration or arguments, 2 solver
failure or out of memory, 3 I/O or unreadable config file.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, checked, load_config
from .experiments import eoc_ladder, wavenumber_suite
from .params import ModelParams, SolverConfig
from .radius import RadiusLaw
from .reconstruct import mean_I_path, reconstruct_u, curve_points
from .solver import AdmissibilityReport, Integration, SolverError, check_admissibility, integrate
from .stability import critical_radius, neutral_delta, selection, spectral_report

ENV_OUT = "KSRING_OUT"
# Rows per formatted write in write_csv: bounds the bytes built at once.  A
# bytes % format grows its buffer as it fills it, and at 512 rows the four
# columns of means.csv raised a README run's peak RSS by about 0.1 MB.
CSV_BLOCK_ROWS = 256


def resolve_out_dir(flag_value: str | None, cfg_value: str | None) -> Path:
    if flag_value:
        return Path(flag_value)
    if cfg_value:
        return Path(cfg_value)
    return Path(os.environ.get(ENV_OUT) or "out")


def write_csv(path: Path, header: list[str], rows, first_column: list[str] | list[bytes] | None = None) -> None:
    """Writes the header and the rows (a 2-D array or any iterable of rows),
    every value as %.17g, which round-trips a double exactly.  Each block of
    CSV_BLOCK_ROWS rows is one `%` format into bytes, written to a binary
    file, so no Python loop runs per value and no text is encoded again.

    first_column, if given, is the first column already formatted, one
    bytes (or str) entry per row, and rows hold only the other columns.  The
    snapshots pass their grid column this way, formatted once per run."""
    data = np.asarray(rows if isinstance(rows, np.ndarray) else list(rows), dtype=float)
    cells = [b"%.17g"] * len(header)
    if first_column is not None:
        cells[0] = b"%s"
        if first_column and isinstance(first_column[0], str):
            first_column = [text.encode() for text in first_column]
    line = b",".join(cells) + b"\n"
    with open(path, "wb") as f:
        f.write((",".join(header) + "\n").encode())
        for start in range(0, len(data), CSV_BLOCK_ROWS):
            block = data[start : start + CSV_BLOCK_ROWS]
            if first_column is not None:
                # Rows of (text, values...) in one object block: a format
                # string holding the texts instead fragments the C heap and
                # raised a dense run's peak RSS by 0.5 MB.
                mixed = np.empty((len(block), len(header)), dtype=object)
                mixed[:, 0] = first_column[start : start + CSV_BLOCK_ROWS]
                mixed[:, 1:] = block
                block = mixed
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
    steps: Integration,
    admissibility: AdmissibilityReport,
    out: Path,
) -> dict:
    """Steps the run, writing each stored step's snapshot and curve as it is
    yielded, then means.csv and report.json (solve time traj.solve_s); a
    step's height is reconstructed once for its files and, at N, the spectrum."""
    traj = steps.trajectory
    out.mkdir(parents=True, exist_ok=True)
    N = traj.tgrid.N
    emit = set(cfg.emit)
    seconds = {"reconstruct_s": 0.0, "write_s": 0.0}

    @contextmanager
    def timer(phase: str):
        t0 = time.perf_counter()
        yield
        seconds[phase] += time.perf_counter() - t0

    width = len(str(N))
    with timer("write_s"):  # the grid column is the same in every snapshot
        sigma_text = [b"%.17g" % s for s in traj.grid.sigma.tolist()] if "v" in emit else None
    u_field = None  # the steps come in order and end at N, so u_field ends as u(T)
    for n, v in steps:  # A is final up to n; v is valid until the next step
        tag = str(n).zfill(width)
        if "u" in emit or "curve" in emit:
            with timer("reconstruct_s"):
                u_field = reconstruct_u(traj, cfg.I0, n, v)
        if "v" in emit:
            columns = (v,) + ((u_field.values,) if "u" in emit else ())
            with timer("write_s"):
                write_csv(
                    out / f"snapshot_{tag}.csv",
                    ["sigma", "v", "u"][: 1 + len(columns)],
                    np.column_stack(columns),
                    first_column=sigma_text,
                )
        if "curve" in emit:
            with timer("reconstruct_s"):
                pts = curve_points(traj, n, u_field)
            with timer("write_s"):
                write_csv(out / f"curve_{tag}.csv", ["x", "y"], pts)

    if "means" in emit:
        with timer("reconstruct_s"):
            I_path = mean_I_path(traj, cfg.I0)
        with timer("write_s"):
            nodes = np.arange(N + 1)
            write_csv(
                out / "means.csv",
                ["n", "t", "S_n", "I_tilde"],
                np.column_stack((nodes, nodes * traj.tgrid.k, traj.S, I_path)),
            )

    report = {
        "params": cfg.to_dict()["model"] | {"R0": cfg.params.R0},
        "grid": cfg.to_dict()["grid"] | {"N": N},
        "solver": {"method": traj.method, "jn": cfg.solver.newton_iters, "v0_method": cfg.v0_method},
        "admissibility": _admissibility_dict(admissibility),
        "max_abs_mean": float(np.max(np.abs(traj.S))),
        "wall_time_seconds": traj.solve_s,
        "config_hash": cfg.config_hash(),
    }
    if "spectrum" in emit:
        if u_field is None:
            with timer("reconstruct_s"):
                u_field = reconstruct_u(traj, cfg.I0, N, v)  # the run is over: v is V^N
        report["spectral"] = selection(cfg.params, float(traj.R_nodes[N]), u_field)
    report["timing"] = {"solve_s": traj.solve_s} | seconds
    _write_json(out / "report.json", report)
    return report


def cmd_run(cfg: RunConfig, out: Path, force: bool = False) -> dict:
    law = RadiusLaw(cfg.params)
    admissibility = check_admissibility(cfg.params, cfg.tgrid, law)
    if not admissibility.passed:
        if not force:
            raise ConfigError([f"admissibility: {admissibility}"])
        print("warning: admissibility failed, continuing because of --force", file=sys.stderr)
    # integrate() records V^0, so a step-0 failure makes no directory
    steps = integrate(
        cfg.params, cfg.tgrid, cfg.grid, cfg.solver, cfg.initial_v(),
        law=law, method="newton", every=cfg.stride, require_admissible=False,
    )
    return emit_run_outputs(cfg, steps, admissibility, out)


def cmd_eoc(cfg: RunConfig, out: Path, levels: int) -> dict:
    t0 = time.perf_counter()
    ladder = eoc_ladder(cfg, levels=levels)
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
        "timing": ladder.timing,
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
    finite = math.isfinite(r_min) and math.isfinite(r_max)
    if not (finite and r_max > r_min >= 0.0) or samples < 2 or m_max < 2:
        raise ConfigError(
            ["stability-map: need finite r_max > r_min >= 0, samples >= 2 and m_max >= 2"]
        )
    header = ["R"] + [f"delta_m{m}" for m in range(2, m_max + 1)]
    rows = []
    entries = []
    # Every row and entry is computed before the output directory is made, so
    # a radius whose curves or rates overflow leaves no partial map behind.
    # Each R is a NumPy scalar, so an overflow, a division by an underflowed
    # R^4 or an inf - inf raises; its arithmetic gives the bits of a float's.
    for R in np.linspace(r_min, r_max, samples):
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                deltas = [neutral_delta(m, R, params) if R > 0 else 0.0 for m in range(2, m_max + 1)]
                rep = spectral_report(R, params, m_max) if R > 0 else None
        except FloatingPointError:
            raise ConfigError(
                [f"stability-map: the neutral curves or growth rates are not finite at R = {R:g}"]
            ) from None
        rows.append([R] + deltas)
        if rep is not None:
            entries.append(
                {"R": R, "unstable_modes": rep.unstable_modes, "predicted_dominant": rep.predicted_dominant}
            )
    report = {
        "params": {"delta": params.delta, "alpha": params.alpha, "v_c": params.v_c},
        "R_star": critical_radius(params),
        "m_max": m_max,
        "spectral": entries,
    }
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "neutral_curves.csv", header, rows)
    _write_json(out / "stability.json", report)
    return report


def cmd_wavenumber_suite(out: Path, jn: int) -> dict:
    t0 = time.perf_counter()
    rows = wavenumber_suite(jn=jn)
    wall = time.perf_counter() - t0
    out.mkdir(parents=True, exist_ok=True)
    report = {"rows": rows, "jn": jn, "wall_time_seconds": wall, "all_pass": all(r["pass"] for r in rows)}
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
    config, out, jn = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    config.add_argument("--config", required=True)
    out.add_argument("--out", default=None)
    jn.add_argument("--jn", type=int, default=None)  # None: the config's, else SolverConfig's

    run_p = sub.add_parser("run", parents=[config, out, jn], help="integrate one configuration")
    run_p.add_argument("--force", action="store_true", help="continue past admissibility failure")

    eoc_p = sub.add_parser("eoc", parents=[config, out, jn], help="self-convergence ladder")
    eoc_p.add_argument("--levels", type=int, default=3)

    map_p = sub.add_parser("stability-map", parents=[config, out], help="neutral curves and unstable sets")
    map_p.add_argument("--rmin", type=float, default=0.0)
    map_p.add_argument("--rmax", type=float, default=30.0)
    map_p.add_argument("--samples", type=int, default=121)
    map_p.add_argument("--mmax", type=int, default=5)

    sub.add_parser("wavenumber-suite", parents=[out, jn], help="desk-scale mode selection runs")
    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        if e.code == 2:  # argparse usage error: invalid arguments
            return 1
        raise
    try:
        cfg = load_config(args.config) if "config" in args else None
        solver = cfg.solver if cfg else SolverConfig()
        if getattr(args, "jn", None) is not None:
            solver = checked(replace, solver, newton_iters=args.jn)
        out = resolve_out_dir(args.out, cfg.out_dir if cfg else None)
        if cfg:
            cfg = replace(cfg, solver=solver)
        if args.command == "run":
            report = cmd_run(cfg, out, force=args.force)
            print(
                f"run complete: N={report['grid']['N']} steps, "
                f"max |S_n| = {report['max_abs_mean']:.3e}, report {out / 'report.json'}"
            )
        elif args.command == "eoc":
            report = cmd_eoc(cfg, out, levels=args.levels)
            print(f"eoc_v per pair: {report['eoc']['eoc_v']}")
            print(f"eoc_u per pair: {report['eoc']['eoc_u']}")
        elif args.command == "stability-map":
            cmd_stability_map(
                cfg.params, out, r_min=args.rmin, r_max=args.rmax, samples=args.samples, m_max=args.mmax
            )
            print(f"stability map written to {out}")
        else:
            cmd_wavenumber_suite(out, jn=solver.newton_iters)
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
    except MemoryError as e:
        print(f"out of memory: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
