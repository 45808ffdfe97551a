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
from typing import TYPE_CHECKING

import numpy as np

from .field import PeriodicField, _pad, pw_linear_square_integral
from .params import TWO_PI

if TYPE_CHECKING:
    from .solver import Trajectory


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


def interp_v(traj: "Trajectory", sigma: float, t: float) -> float:
    """Bilinear value of Vtilde at (sigma, t); needs both bracketing snapshots."""
    T = traj.tgrid.T
    if not (0.0 <= t <= T):
        raise ValueError(f"t={t} outside [0, {T}]")
    k = traj.tgrid.k
    n = min(int(t / k), traj.tgrid.N - 1)
    eta = (t - n * k) / k
    h = traj.grid.h
    s = sigma % TWO_PI
    i = min(int(s / h), traj.grid.J - 1)
    theta = (s - i * h) / h
    vn = traj.v(n)
    vp = traj.v(n + 1)
    lo = (1.0 - theta) * vn[i] + theta * vn[i + 1]
    hi = (1.0 - theta) * vp[i] + theta * vp[i + 1]
    return (1.0 - eta) * lo + eta * hi


def cumulative_v(traj: "Trajectory", i: int, n: int) -> float:
    """int_0^{sigma_i} Vtilde(., t^n) for node index 0 <= i <= J."""
    v = traj.v(n)
    if not (0 <= i <= v.J):
        raise ValueError(f"node index {i} outside 0..{v.J}")
    return float(_cumulative_nodes(v.values, _pad(v.values)[2:], v.h)[i])


def v_squared_integral(traj: "Trajectory", n: int) -> float:
    """int_0^{2pi} Vtilde(., t^n)^2, exact for the interpolant."""
    v = traj.v(n)
    return pw_linear_square_integral(v.values, v.h)


def _mean_I(traj: "Trajectory", I0: float, at):
    """Itilde at the step boundaries traj.R_nodes[at], at an index or a slice."""
    rate0 = traj.law.rate(traj.R_nodes[0])
    return (traj.law.rate(traj.R_nodes[at]) / rate0) * (
        I0 + (traj.params.v_c * rate0 / (4.0 * math.pi)) * traj.A[at]
    )


def mean_I(traj: "Trajectory", I0: float, n: int) -> float:
    """Mean height Itilde(t^n) via the closed form above."""
    if not (0 <= n <= traj.tgrid.N):
        raise ValueError(f"step {n} outside 0..{traj.tgrid.N}")
    return _mean_I(traj, I0, n)


def mean_I_path(traj: "Trajectory", I0: float) -> np.ndarray:
    """Itilde at every step boundary 0..N."""
    return _mean_I(traj, I0, slice(None))


def reconstruct_u(traj: "Trajectory", I0: float, n: int) -> PeriodicField:
    """Height samples U_i^n on the grid of the trajectory."""
    v = traj.v(n)
    nxt = _pad(v.values)[2:]
    c = _cumulative_nodes(v.values, nxt, v.h)
    base = mean_I(traj, I0, n) - _mean_of_cumulative(v.values, nxt, c, v.h)
    return PeriodicField(base + c[:-1], v.h)


def curve_points(traj: "Trajectory", n: int, I0: float = 0.0, u: PeriodicField | None = None) -> np.ndarray:
    """Closed interface polyline (R(t^n) + U_i)(cos sigma_i, sin sigma_i), J+1 rows.

    u is the height reconstruct_u(traj, I0, n) when the caller already has
    it; it is reconstructed here otherwise."""
    if u is None:
        u = reconstruct_u(traj, I0, n)
    r = traj.R_nodes[n] + u.values
    s = traj.grid.sigma
    pts = np.column_stack((r * np.cos(s), r * np.sin(s)))
    return np.vstack((pts, pts[:1]))
