"""Experiments built from many runs: the self-convergence ladder and the
wavenumber selection suite."""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .config import ConfigError, RunConfig, checked
from .field import GridSpec, _norm_values, sample_cosine_sum_dsigma
from .params import ModelParams, SolverConfig, TimeGrid
from .radius import RadiusLaw
from .reconstruct import reconstruct_u
from .solver import Integration, check_admissibility, integrate, run
from .stability import selection


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
    # Solve seconds and reference sweeps of every run, kept out of to_dict().
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
    return _norm_values(coarse - fine[:: fine.size // coarse.size], h_coarse)


def eoc_ladder(cfg: RunConfig, levels: int = 3) -> EocReport:
    """Self-convergence ladder: J doubles and k = T/J at every level, errors
    measured at T against a reference at eight times the finest grid."""
    if levels < 3:
        raise ConfigError(["eoc.levels: must be >= 3"])
    T = cfg.tgrid.T
    Js = [cfg.grid.J * 2**l for l in range(levels)]
    J_ref = 8 * Js[-1]
    law = RadiusLaw(cfg.params)
    # R0 and R(T) are the same in every run, so the k bound binds where k = T/J
    # is largest: the coarsest level.  This one check covers every run.
    adm = check_admissibility(cfg.params, TimeGrid.from_horizon(T, T / Js[0]), law)
    if not adm.passed:
        raise ConfigError([f"eoc: coarsest level J = {Js[0]} fails admissibility: {adm}"])

    timing: dict = {"levels": []}  # each run's solve_s and reference_sweeps

    def start(J: int, method: str, every: int) -> Integration:
        grid, tg = GridSpec(J), TimeGrid.from_horizon(T, T / J)
        return integrate(
            cfg.params, tg, grid, cfg.solver, replace(cfg, grid=grid).initial_v(),
            law=law, method=method, every=every, require_admissible=False,
        )

    # Each integration lives only inside the function that takes its numbers,
    # so no finished run holds memory while the next, larger one runs.
    def reference_at_T() -> tuple[np.ndarray, np.ndarray]:
        ref = start(J_ref, "reference", J_ref)
        next(ref)  # V^0; with every = N the next step yielded is N
        N, v = next(ref)
        traj = ref.trajectory
        timing["reference_solve_s"], timing["reference_sweeps"] = traj.solve_s, traj.reference_sweeps
        return v, reconstruct_u(traj, cfg.I0, N, v).values

    def level(J: int) -> EocLevel:
        # The reference and Newton runs step together, so the gap over all
        # N + 1 steps is taken as they go and neither stores its steps.
        cn_steps, newton_steps = start(J, "reference", 1), start(J, "newton", 1)
        h = GridSpec(J).h
        gap, d = 0.0, np.empty(J)
        for (_, v), (_, w) in zip(cn_steps, newton_steps):
            gap = max(gap, _norm_values(np.subtract(w, v, out=d), h))  # norm_h of W^m - V^m
        # v and w are V^N and W^N: both runs are finished, so nothing overwrites them.
        cn, newton = cn_steps.trajectory, newton_steps.trajectory
        timing["levels"].append(
            {"J": J, "reference_solve_s": cn.solve_s, "newton_solve_s": newton.solve_s,
             "reference_sweeps": cn.reference_sweeps}
        )
        err_v = _subsampled_err(ref_v, v, h)
        err_u = _subsampled_err(ref_u, reconstruct_u(cn, cfg.I0, cn.tgrid.N, v).values, h)
        err_vn = _subsampled_err(ref_v, w, h)
        return EocLevel(J, T / J, err_v, err_u, err_vn, gap)

    ref_v, ref_u = reference_at_T()
    report = EocReport(reference_J=J_ref, levels=[level(J) for J in Js], timing=timing)
    for l in report.levels:
        if zero := [name for name in ("err_v", "err_u", "err_v_newton") if getattr(l, name) == 0.0]:
            raise ConfigError([f"eoc: level J = {l.J} has {', '.join(zero)} = 0, so its order is undefined"])
    for a, b in zip(report.levels, report.levels[1:]):
        report.eoc_v.append(math.log2(a.err_v / b.err_v))
        report.eoc_u.append(math.log2(a.err_u / b.err_u))
        report.eoc_v_newton.append(math.log2(a.err_v_newton / b.err_v_newton))
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
        u_T = reconstruct_u(traj, 0.0, tgrid.N, traj.snapshots[tgrid.N])
        verdict = selection(params, float(traj.R_nodes[-1]), u_T)
        unstable, predicted = verdict["unstable_at_R0"], verdict["predicted_dominant_at_R0"]
        measured = verdict["measured_dominant"]
        seeded = predicted in mode_set
        ok = measured in unstable and (measured == predicted if seeded else True)
        row = {
            "R0": R0,
            "modes": list(mode_set),
            "unstable_at_R0": unstable,
            "predicted_dominant": predicted,
            "predicted_seeded": seeded,
            "measured_dominant": measured,
            "R_T": verdict["R_T"],
            "max_abs_mean": float(np.max(np.abs(traj.S))),
            "pass": ok,
        }
        if keep_trajectories:
            row["trajectory"] = traj
        rows.append(row)
    return rows
