"""Command line driver: argument parsing, file output and exit codes.

Subcommands
    run                integrate one configuration, write its snapshot files and report
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
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, load_config
from .experiments import EocLevel, eoc_ladder, wavenumber_suite
from .params import MAX_COUNT, FieldErrors, ModelParams, SolverConfig
from .radius import RadiusLaw
from .reconstruct import mean_I_path, reconstruct_u, curve_points
from .solver import AdmissibilityReport, Integration, SolverError, check_admissibility, integrate
from .stability import critical_radius, neutral_delta, selection, spectral_report

ENV_OUT = "KSRING_OUT"
# Rows and values per formatted write in write_csv: they bound the bytes
# built at once.  A bytes % format grows its buffer as it fills it, and at
# 512 rows the four columns of means.csv raised a README run's peak RSS by
# about 0.1 MB.  The value cap keeps a wide table's block as small; tables of
# up to four columns keep 256-row blocks.
CSV_BLOCK_ROWS = 256
CSV_BLOCK_VALUES = 1024


def resolve_out_dir(flag_value: str | None, cfg_value: str | None) -> Path:
    if flag_value:
        return Path(flag_value)
    if cfg_value:
        return Path(cfg_value)
    return Path(os.environ.get(ENV_OUT) or "out")


def write_csv(path: Path, header: list[str], rows, first_column: list[bytes] | None = None) -> None:
    """Writes the header and the rows (a 2-D array or any iterable of rows),
    every value as %.17g, which round-trips a double exactly.  Each block of
    at most CSV_BLOCK_ROWS rows and CSV_BLOCK_VALUES values (whole rows, or a
    piece of one wide row) is one `%` format into bytes, written to a binary
    file, so no Python loop runs per value and no text is encoded again.

    first_column, if given, is the first column already formatted, one
    bytes entry per row, and rows hold only the other columns.  The
    snapshot files pass their grid column this way, formatted once per run."""
    data = np.asarray(rows if isinstance(rows, np.ndarray) else list(rows), dtype=float)
    width = len(header)
    cells = [b"%.17g,"] * (width - 1) + [b"%.17g\n"]  # each value with the separator after it
    if first_column is not None:
        cells[0] = b"%s,"
    step = min(CSV_BLOCK_ROWS, max(1, CSV_BLOCK_VALUES // width))
    with open(path, "wb") as f:
        f.write((",".join(header) + "\n").encode())
        for start in range(0, len(data), step):
            block = data[start : start + step]
            if first_column is not None:
                # Rows of (text, values...) in one object block: a format
                # string holding the texts instead fragments the C heap and
                # raised a dense run's peak RSS by 0.5 MB.
                mixed = np.empty((len(block), width), dtype=object)
                mixed[:, 0] = first_column[start : start + step]
                mixed[:, 1:] = block
                block = mixed
            for c in range(0, width, CSV_BLOCK_VALUES):  # one piece, unless a row is wider than a block
                piece = block[:, c : c + CSV_BLOCK_VALUES]
                f.write(b"".join(cells[c : c + CSV_BLOCK_VALUES]) * len(piece) % tuple(piece.ravel().tolist()))


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def emit_run_outputs(
    cfg: RunConfig,
    steps: Integration,
    admissibility: AdmissibilityReport,
    out: Path,
) -> dict:
    """Steps the run, writing each stored step's snapshot and curve as it is
    yielded, then means.csv and report.json (solve time steps.solve_s); a
    step's height is reconstructed once for its files and, at N, the spectrum."""
    out.mkdir(parents=True, exist_ok=True)
    N = steps.tgrid.N
    emit = set(cfg.emit)
    seconds = {"reconstruct_s": 0.0, "write_s": 0.0}

    @contextmanager
    def timer(phase: str):
        t0 = time.perf_counter()
        yield
        seconds[phase] += time.perf_counter() - t0

    width = len(str(N))
    with timer("write_s"):  # the grid column is the same in every snapshot
        sigma_text = [b"%.17g" % s for s in steps.grid.sigma.tolist()] if "v" in emit else None
    for n, v in steps:  # A is final up to n; v is valid until the next step
        tag = str(n).zfill(width)
        if "u" in emit or "curve" in emit or ("spectrum" in emit and n == N):
            with timer("reconstruct_s"):  # the steps end at N, so u_field ends as u(T)
                u_field = reconstruct_u(steps, cfg.I0, n, v)
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
                pts = curve_points(steps, n, u_field)
            with timer("write_s"):
                write_csv(out / f"curve_{tag}.csv", ["x", "y"], pts)

    if "means" in emit:
        with timer("reconstruct_s"):
            I_path = mean_I_path(steps, cfg.I0)
        with timer("write_s"):
            nodes = np.arange(N + 1)
            write_csv(
                out / "means.csv",
                ["n", "t", "S_n", "I_tilde"],
                np.column_stack((nodes, nodes * steps.tgrid.k, steps.S, I_path)),
            )

    report = {
        "params": cfg.to_dict()["model"] | {"R0": cfg.params.R0},
        "grid": cfg.to_dict()["grid"] | {"N": N},
        "solver": {"method": steps.method, "jn": cfg.solver.newton_iters, "v0_method": cfg.v0_method},
        "admissibility": admissibility.to_dict(),
        "max_abs_mean": float(np.max(np.abs(steps.S))),
        "wall_time_seconds": steps.solve_s,
        "config_hash": cfg.config_hash(),
    }
    if "spectrum" in emit:
        report["spectral"] = selection(cfg.params, float(steps.R_nodes[N]), u_field)
    report["timing"] = {"solve_s": steps.solve_s} | seconds
    _write_json(out / "report.json", report)
    return report


def cmd_run(cfg: RunConfig, out: Path, force: bool) -> dict:
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
    write_csv(out / "eoc.csv", [f.name for f in fields(EocLevel)], map(astuple, ladder.levels))
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


def cmd_stability_map(params: ModelParams, out: Path, r_min: float, r_max: float, samples: int, m_max: int) -> dict:
    finite = math.isfinite(r_min) and math.isfinite(r_max)
    if not (finite and r_max > r_min >= 0.0) or samples < 2 or m_max < 2:
        raise ConfigError(
            ["stability-map: need finite r_max > r_min >= 0, samples >= 2 and m_max >= 2"]
        )
    if samples > MAX_COUNT:
        raise ConfigError([f"--samples: must be at most 2**53, got {samples}"])
    if samples * m_max > MAX_COUNT:
        raise ConfigError([f"--mmax: the map's samples * mmax cells must be at most 2**53, got {samples} * {m_max}"])
    # The map is allocated whole before any list of its columns or rows, so a
    # map that does not fit fails at once, as out of memory.
    table = np.empty((samples, m_max))  # R, then delta_m for m = 2..m_max
    header = ["R"] + [f"delta_m{m}" for m in range(2, m_max + 1)]
    entries = []
    # Every row and entry is computed before the output directory is made, so
    # a radius whose curves or rates overflow leaves no partial map behind.
    # Each R is a NumPy scalar, so an overflow, a division by an underflowed
    # R^4 or an inf - inf raises; its arithmetic gives the bits of a float's.
    for i, R in enumerate(np.linspace(r_min, r_max, samples)):
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                deltas = [neutral_delta(m, R, params) if R > 0 else 0.0 for m in range(2, m_max + 1)]
                rep = spectral_report(R, params, m_max) if R > 0 else None
        except FloatingPointError:
            raise ConfigError(
                [f"stability-map: the neutral curves or growth rates are not finite at R = {R:g}"]
            ) from None
        table[i] = [R] + deltas
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
    write_csv(out / "neutral_curves.csv", header, table)
    _write_json(out / "stability.json", report)
    return report


def cmd_wavenumber_suite(out: Path, solver: SolverConfig) -> dict:
    t0 = time.perf_counter()
    rows = wavenumber_suite(solver=solver)
    wall = time.perf_counter() - t0
    out.mkdir(parents=True, exist_ok=True)
    report = {
        "rows": rows, "jn": solver.newton_iters, "wall_time_seconds": wall, "all_pass": all(r["pass"] for r in rows)
    }
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
            try:
                solver = replace(solver, newton_iters=args.jn)
            except FieldErrors as e:  # the one field it sets, named by the flag that set it
                raise ConfigError([f"--jn: {message}" for _, message in e.problems]) from None
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
            cmd_wavenumber_suite(out, solver)
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
