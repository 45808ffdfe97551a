"""The record of a run: the stored steps of v and the per-step scalar paths."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .field import GridSpec
from .params import ModelParams, TimeGrid
from .radius import RadiusLaw


@dataclass
class Trajectory:
    """Output of a run: strided v snapshots plus per-step scalar paths.

    S[n] is the discrete mean h*sum V^n, Q[n] the exact integral of the
    squared piecewise linear interpolant of V^n, A[n] the trapezoid
    accumulation of Q/(Rdot R^2) used by the mean height closed form,
    R_nodes[n] the radius at t^n, solve_s the seconds the run's
    Integration spent constructing itself and stepping, and
    reference_sweeps the fixed point sweeps of a reference run.
    """

    params: ModelParams
    tgrid: TimeGrid
    grid: GridSpec
    law: RadiusLaw
    method: str
    S: np.ndarray
    Q: np.ndarray
    A: np.ndarray
    R_nodes: np.ndarray
    solve_s: float = 0.0
    snapshots: dict[int, np.ndarray] = dc_field(default_factory=dict)
    reference_sweeps: int = 0

