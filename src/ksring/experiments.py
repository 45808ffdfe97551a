"""Experiments built from many runs: the self-convergence ladder and the
wavenumber selection suite."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field as dc_field, replace

import numpy as np

from .config import ConfigError, RunConfig
from .field import GridSpec, _norm_values, sample_cosine_sum_dsigma
from .params import FieldErrors, ModelParams, SolverConfig, TimeGrid
from .reconstruct import reconstruct_u
from .solver import Integration, check_admissibility, integrate
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
        out = asdict(self)
        del out["timing"]
        return out


def _subsampled_err(fine: np.ndarray, coarse: np.ndarray, h_coarse: float) -> float:
    return _norm_values(coarse - fine[:: fine.size // coarse.size], h_coarse)


def eoc_ladder(cfg: RunConfig, levels: int) -> EocReport:
    """Self-convergence ladder: J doubles and k = T/J at every level, errors
    measured at T against a reference at eight times the finest grid."""
    if levels < 3:
        raise ConfigError(["eoc.levels: must be >= 3"])
    T = cfg.tgrid.T
    # The reference run, at eight times the finest J and with as many steps,
    # is the ladder's largest, so it is checked before any level is listed or
    # run.  Capping the exponent keeps a huge --levels from building a huge
    # int; past the cap the reference is past the bounds either way.
    J_ref = 8 * cfg.grid.J * 2 ** (min(levels, 64) - 1)
    try:
        GridSpec(J_ref), TimeGrid.from_horizon(T, T / J_ref)
    except FieldErrors:
        raise ConfigError(
            [f"eoc.levels: {levels} levels need a reference run of {cfg.grid.J} * 2**{levels + 2} points "
             "and steps, beyond the 2**53 points and 2**52 steps a run may take"]
        ) from None
    Js = [cfg.grid.J * 2**l for l in range(levels)]
    # R0 and R(T) are the same in every run, so the k bound binds where k = T/J
    # is largest: the coarsest level.  This one check covers every run.
    adm = check_admissibility(cfg.params, TimeGrid.from_horizon(T, T / Js[0]))
    if not adm.passed:
        raise ConfigError([f"eoc: coarsest level J = {Js[0]} fails admissibility: {adm}"])

    timing: dict = {"levels": []}  # each run's solve_s and reference_sweeps

    def start(J: int, method: str, every: int) -> Integration:
        return integrate(
            cfg.params, TimeGrid.from_horizon(T, T / J), cfg.solver, replace(cfg, grid=GridSpec(J)).initial_v(),
            method=method, every=every, require_admissible=False,
        )

    # Each integration lives only inside the function that takes its numbers,
    # so no finished run holds memory while the next, larger one runs.
    def reference_at_T() -> tuple[np.ndarray, np.ndarray]:
        ref = start(J_ref, "reference", J_ref)
        next(ref)  # V^0; with every = N the next step yielded is N
        N, v = next(ref)
        timing["reference_solve_s"], timing["reference_sweeps"] = ref.solve_s, ref.reference_sweeps
        return v, reconstruct_u(ref, cfg.I0, N, v).values

    def level(J: int) -> EocLevel:
        # The reference and Newton runs step together, so the gap over all
        # N + 1 steps is taken as they go and neither stores its steps.
        cn, newton = start(J, "reference", 1), start(J, "newton", 1)
        h = GridSpec(J).h
        gap, d = 0.0, np.empty(J)
        for (_, v), (_, w) in zip(cn, newton):
            gap = max(gap, _norm_values(np.subtract(w, v, out=d), h))  # norm_h of W^m - V^m
        # v and w are V^N and W^N: both runs are finished, so nothing overwrites them.
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


def wavenumber_suite(solver: SolverConfig, J: int = 256, k: float = 0.01, T: float = 100.0) -> list[dict]:
    """Runs the five expanding-circle selection experiments at desk scale.

    Passing criterion per row: the measured dominant mode of u(T) lies in the
    unstable set at R0, and equals the argmax growth rate mode whenever that
    mode carries nonzero initial amplitude.
    """
    rows = []
    for R0, mode_set in SUITE_MODE_SETS.items():
        params = ModelParams(delta=4.0, alpha=1.5, v_c=0.001, R0=R0)
        tgrid = TimeGrid.from_horizon(T, k)
        pairs = tuple((SUITE_AMPLITUDE, m) for m in mode_set)
        v0 = sample_cosine_sum_dsigma(GridSpec(J), pairs)
        steps = integrate(params, tgrid, solver, v0, every=tgrid.N)
        next(steps)  # V^0; with every = N the next step yielded is N
        N, v = next(steps)
        u_T = reconstruct_u(steps, 0.0, N, v)
        verdict = selection(params, float(steps.R_nodes[-1]), u_T)
        unstable, predicted = verdict["unstable_at_R0"], verdict["predicted_dominant_at_R0"]
        measured = verdict["measured_dominant"]
        seeded = predicted in mode_set
        ok = measured in unstable and (measured == predicted if seeded else True)
        rows.append({
            "R0": R0,
            "modes": list(mode_set),
            "unstable_at_R0": unstable,
            "predicted_dominant": predicted,
            "predicted_seeded": seeded,
            "measured_dominant": measured,
            "R_T": verdict["R_T"],
            "max_abs_mean": float(np.max(np.abs(steps.S))),
            "pass": ok,
        })
    return rows
