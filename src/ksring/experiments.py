"""Experiments built from many runs: the self-convergence ladder and the
wavenumber selection suite."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .config import ConfigError, RunConfig, checked
from .field import GridSpec, sample_cosine_sum_dsigma
from .params import ModelParams, SolverConfig, TimeGrid
from .radius import RadiusLaw
from .reconstruct import reconstruct_u
from .solver import Integration, check_admissibility, integrate, run
from .stability import SPECTRAL_M_MAX, measured_dominant_mode, spectral_report
from .trajectory import Trajectory


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
    # Solve seconds of every run, kept out of to_dict(): they vary between runs.
    timing: dict = dc_field(default_factory=dict)

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


def eoc_ladder(cfg: RunConfig, levels: int = 3) -> EocReport:
    """Self-convergence ladder: J doubles and k = T/J at every level, errors
    measured at T against a reference at eight times the finest grid."""
    if levels < 3:
        raise ConfigError(["eoc.levels: must be >= 3"])
    T = cfg.tgrid.T
    Js = [cfg.grid.J * 2**l for l in range(levels)]
    J_ref = 8 * Js[-1]
    law = RadiusLaw(cfg.params)
    # R0 and R(T) are the same at every level, so the k bound binds where
    # k = T/J is largest: the coarsest level.
    adm = check_admissibility(cfg.params, TimeGrid.from_horizon(T, T / Js[0]), law)
    if not adm.passed:
        raise ConfigError([f"eoc: coarsest level J = {Js[0]} fails admissibility: {adm}"])

    solve_s: dict[tuple[int, str], float] = {}

    def start(J: int, method: str, every: int) -> Integration:
        tg = TimeGrid.from_horizon(T, T / J)
        v0 = replace(cfg, grid=GridSpec(J)).initial_v()
        t0 = time.perf_counter()
        steps = integrate(cfg.params, tg, GridSpec(J), cfg.solver, v0, law=law, method=method, every=every)
        solve_s[J, method] = time.perf_counter() - t0
        return steps

    def advance(steps: Integration) -> np.ndarray:
        """The next V^m, the seconds of its step added to its run's solve time."""
        t0 = time.perf_counter()
        _, v = next(steps)
        solve_s[steps.trajectory.grid.J, steps.trajectory.method] += time.perf_counter() - t0
        return v

    def at_T(steps: Integration, v: np.ndarray) -> Trajectory:
        """The finished trajectory, with V^N as its one snapshot."""
        steps.trajectory.snapshots[steps.trajectory.tgrid.N] = v.copy()
        return steps.trajectory

    # Each integration lives only inside the function that takes its numbers,
    # so no finished run holds memory while the next, larger one runs.
    def reference_at_T() -> tuple[np.ndarray, np.ndarray]:
        ref = start(J_ref, "reference", J_ref)
        advance(ref)  # V^0; with every = N the next step yielded is N
        traj = at_T(ref, advance(ref))
        return traj.final().values, reconstruct_u(traj, cfg.I0, traj.tgrid.N).values

    def level(J: int) -> EocLevel:
        # The reference and Newton runs step together, so the gap over all
        # N + 1 steps is taken as they go and neither stores its steps.
        cn_steps, newton_steps = start(J, "reference", 1), start(J, "newton", 1)
        h = GridSpec(J).h
        gap, d = 0.0, np.empty(J)
        for _ in range(cn_steps.trajectory.tgrid.N + 1):
            v, w = advance(cn_steps), advance(newton_steps)
            np.subtract(w, v, out=d)
            gap = max(gap, math.sqrt(h * float(np.dot(d, d))))  # norm_h of W^m - V^m
        cn, newton = at_T(cn_steps, v), at_T(newton_steps, w)
        err_v = _subsampled_err(ref_v, cn.final().values, h)
        err_u = _subsampled_err(ref_u, reconstruct_u(cn, cfg.I0, cn.tgrid.N).values, h)
        err_vn = _subsampled_err(ref_v, newton.final().values, h)
        return EocLevel(J, T / J, err_v, err_u, err_vn, gap)

    ref_v, ref_u = reference_at_T()
    report = EocReport(reference_J=J_ref, levels=[level(J) for J in Js])
    for a, b in zip(report.levels, report.levels[1:]):
        report.eoc_v.append(math.log2(a.err_v / b.err_v))
        report.eoc_u.append(math.log2(a.err_u / b.err_u))
        report.eoc_v_newton.append(math.log2(a.err_v_newton / b.err_v_newton))
    report.timing = {
        "reference_solve_s": solve_s[J_ref, "reference"],
        "levels": [
            {"J": J, "reference_solve_s": solve_s[J, "reference"], "newton_solve_s": solve_s[J, "newton"]}
            for J in Js
        ],
    }
    return report


SUITE_MODE_SETS = {
    6.0: (2, 3, 4, 5),
    9.0: (3, 4, 5, 6),
    12.0: (4, 5, 6, 7),
    15.0: (5, 6, 7, 8),
    18.0: (6, 7, 8, 9),
}
SUITE_AMPLITUDE = 0.1  # initial amplitude of every seeded mode


def wavenumber_suite(
    J: int = 256, k: float = 0.01, T: float = 100.0, jn: int = SolverConfig.newton_iters,
    keep_trajectories: bool = False,
) -> list[dict]:
    """Runs the five expanding-circle selection experiments at desk scale.

    Passing criterion per row: the measured dominant mode of u(T) lies in the
    unstable set at R0, and equals the argmax growth rate mode whenever that
    mode carries nonzero initial amplitude.
    """
    solver = checked(SolverConfig, newton_iters=jn)
    rows = []
    for R0, mode_set in SUITE_MODE_SETS.items():
        params = ModelParams(delta=4.0, alpha=1.5, v_c=0.001, R0=R0)
        tgrid = TimeGrid.from_horizon(T, k)
        grid = GridSpec(J)
        pairs = tuple((SUITE_AMPLITUDE, m) for m in mode_set)
        v0 = sample_cosine_sum_dsigma(grid, pairs)
        traj = run(params, tgrid, grid, solver, v0, store_stride=tgrid.N)
        u_T = reconstruct_u(traj, 0.0, tgrid.N)
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
