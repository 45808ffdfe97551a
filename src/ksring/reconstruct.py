"""Height reconstruction from the gradient variable.

With Vtilde the piecewise bilinear interpolant of the computed V_i^n, the
height samples are

    U_i^n = Itilde(t^n) - (1/2pi) int_0^{2pi} ( int_0^sigma Vtilde ) dsigma
            + int_0^{sigma_i} Vtilde,

all sigma integrals evaluated in closed form (exact for the interpolant).
The mean height solves

    dI/dt = -((alpha - 1)/R^2) I + (v_c/(4 pi R^2)) int_0^{2pi} v^2 dsigma.

Since Rdot = v_c + (alpha-1)/R obeys d(Rdot)/dt = -((alpha-1)/R^2) Rdot,
the rate itself is the homogeneous solution, and variation of constants
gives the closed form evaluated here:

    Itilde(t) = (Rdot(t)/Rdot(0)) [ I(0)
                + (v_c Rdot(0)/(4 pi)) int_0^t Qtilde(tau) / (Rdot(tau) R(tau)^2) dtau ],

with Qtilde the exact integral of the squared interpolant.  The solver
accumulates the time integral by the composite trapezoid rule at step
boundaries, matching the second order accuracy of the scheme.
"""

from __future__ import annotations

import math
import numbers
from typing import TYPE_CHECKING

import numpy as np

from .field import PeriodicField, _pad
from .params import TWO_PI

if TYPE_CHECKING:
    from .solver import Integration


def _cumulative_nodes(values: np.ndarray, nxt: np.ndarray, h: float) -> np.ndarray:
    """C_i = int_0^{sigma_i} Vtilde for i = 0..J, trapezoid cumulative sum;
    nxt[i] is values[i+1], periodically (_pad(values)[2:])."""
    seg = 0.5 * h * (values + nxt)
    out = np.empty(values.size + 1)
    out[0] = 0.0
    np.cumsum(seg, out=out[1:])
    return out


def _mean_of_cumulative(values: np.ndarray, nxt: np.ndarray, c: np.ndarray, h: float) -> float:
    """(1/2pi) int_0^{2pi} C(sigma) dsigma with C piecewise quadratic, from
    the node values c = _cumulative_nodes(values, nxt, h).

    On each cell the integral is h*C_i + h^2 (2 V_i + V_{i+1}) / 6, which is
    Simpson exact for the quadratic piece.
    """
    cells = h * c[:-1] + h * h * (2.0 * values + nxt) / 6.0
    return float(np.sum(cells)) / TWO_PI


def _mean_I(traj: "Integration", I0: float, at):
    """Itilde at the step boundaries traj.R_nodes[at], at an index or a slice."""
    rate0 = traj.law.rate(traj.R_nodes[0])
    return (traj.law.rate(traj.R_nodes[at]) / rate0) * (
        I0 + (traj.params.v_c * rate0 / (4.0 * math.pi)) * traj.A[at]
    )


def _check_step(traj: "Integration", n: int) -> None:
    if not isinstance(n, numbers.Integral):
        raise ValueError(f"step {n!r} is not an integer")
    if not (0 <= n <= traj.tgrid.N):
        raise ValueError(f"step {n} outside 0..{traj.tgrid.N}")


def mean_I(traj: "Integration", I0: float, n: int) -> float:
    """Mean height Itilde(t^n) via the closed form above."""
    _check_step(traj, n)
    return _mean_I(traj, I0, n)


def mean_I_path(traj: "Integration", I0: float) -> np.ndarray:
    """Itilde at every step boundary 0..N, 1024 steps at a time: small temporaries."""
    path = np.empty(traj.tgrid.N + 1)
    for n0 in range(0, path.size, 1024):
        path[n0 : n0 + 1024] = _mean_I(traj, I0, slice(n0, n0 + 1024))
    return path


def reconstruct_u(traj: "Integration", I0: float, n: int, v: np.ndarray) -> PeriodicField:
    """Height samples U_i^n on the grid of the run."""
    h = traj.grid.h
    nxt = _pad(v)[2:]
    c = _cumulative_nodes(v, nxt, h)
    base = mean_I(traj, I0, n) - _mean_of_cumulative(v, nxt, c, h)
    return PeriodicField(base + c[:-1])


def curve_points(traj: "Integration", n: int, u: PeriodicField) -> np.ndarray:
    """Closed interface polyline (R(t^n) + U_i)(cos sigma_i, sin sigma_i), J+1
    rows, from the height u = reconstruct_u(traj, I0, n, V^n)."""
    _check_step(traj, n)
    r = traj.R_nodes[n] + u.values
    s = traj.grid.sigma
    pts = np.column_stack((r * np.cos(s), r * np.sin(s)))
    return np.vstack((pts, pts[:1]))
