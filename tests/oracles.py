"""Test entry points into the ksring kernels, and the tests' independent oracles.

No ksring command calls anything here; the tests do, through
`import oracles`.  The step entry points and the stencil wrappers reach the
production kernels through their modules (`solver._reference_step`,
`operators._phi_values`, ...), looked up at call time, so a test that checks
one of them against a dense solve or an identity checks the kernel that
`ksring run` runs, and a test that patches a kernel sees every call of it.
The dense operators, the seminorms and the truncated mode system are
written independently of the solver, from their defining formulas.
"""

from __future__ import annotations

import numpy as np

from ksring import operators, solver
from ksring.field import GridSpec, PeriodicField, _norm_values, _pad, pw_linear_square_integral
from ksring.operators import LinearOperatorCoefficients, second_difference_symbol
from ksring.params import ModelParams, TWO_PI, TimeGrid
from ksring.radius import RadiusLaw, _times
from ksring.reconstruct import _cumulative_nodes
from ksring.stability import _lambda_formula
from ksring.trajectory import Trajectory


# --- grid functions (ksring.field) ---------------------------------------


def zeros(grid: GridSpec) -> PeriodicField:
    return PeriodicField(np.zeros(grid.J), grid.h)


def _check_same_grid(V: PeriodicField, W: PeriodicField):
    if V.J != W.J:
        raise ValueError(f"grid size mismatch: {V.J} vs {W.J}")


def _lap_values(v: np.ndarray, h: float) -> np.ndarray:
    """(v_{i-1} - 2 v_i + v_{i+1}) / h^2, the second difference D_h v."""
    p = _pad(v)
    return (p[:-2] - 2.0 * v + p[2:]) / h**2


def inner_h(V: PeriodicField, W: PeriodicField) -> float:
    _check_same_grid(V, W)
    return V.h * float(np.dot(V.values, W.values))


def seminorm_1h(V: PeriodicField) -> float:
    # |V|_{1,h}^2 = h * sum ((V_i - V_{i-1})/h)^2
    return _norm_values((V.values - _pad(V.values)[:-2]) / V.h, V.h)


def seminorm_2h(V: PeriodicField) -> float:
    # |V|_{2,h}^2 = h * sum (D_h V)_i^2
    return _norm_values(_lap_values(V.values, V.h), V.h)


# --- operators (ksring.operators) ----------------------------------------


def laplacian_h(V: PeriodicField) -> PeriodicField:
    return PeriodicField(_lap_values(V.values, V.h), V.h)


def bilaplacian_h(V: PeriodicField) -> PeriodicField:
    return PeriodicField(_lap_values(_lap_values(V.values, V.h), V.h), V.h)


def phi(V: PeriodicField, W: PeriodicField) -> PeriodicField:
    """phi(V, W) through the production stencil operators._phi_values."""
    _check_same_grid(V, W)
    return PeriodicField(operators._phi_values(V.values, W.values), V.h)


def psi(V: PeriodicField, W: PeriodicField) -> PeriodicField:
    """psi(V, W) through the production operators.psi_coefficients and _psi_apply."""
    _check_same_grid(V, W)
    return PeriodicField(operators._psi_apply(operators.psi_coefficients(V.values), W.values), V.h)


def _apply_L_values(coeffs: LinearOperatorCoefficients, v: np.ndarray, h: float) -> np.ndarray:
    lap = _lap_values(v, h)
    return coeffs.c4 * _lap_values(lap, h) + coeffs.c2 * lap + coeffs.c0 * v


def apply_L(coeffs: LinearOperatorCoefficients, V: PeriodicField) -> PeriodicField:
    return PeriodicField(_apply_L_values(coeffs, V.values, V.h), V.h)


def modal_symbol(coeffs: LinearOperatorCoefficients, m, h: float):
    """Fourier symbol mu_m of L: mode m of L V equals mu_m times mode m of V."""
    s = second_difference_symbol(m, h)
    return operators._symbol(coeffs, s, s * s)


def symbol_array(coeffs: LinearOperatorCoefficients, J: int, h: float) -> np.ndarray:
    """mu_m for the rfft mode ordering m = 0..J/2."""
    return modal_symbol(coeffs, np.arange(J // 2 + 1), h)


# --- radius law (ksring.radius) ------------------------------------------


def rate_at(law: RadiusLaw, t: float) -> float:
    return law.rate(law.radius_at(t))


class FrozenRadiusLaw(RadiusLaw):
    """Radius pinned at R0; a diagnostic device for fixed-radius comparisons."""

    def radii(self, ts) -> np.ndarray:
        return np.full(_times(ts).shape, self.params.R0)


# --- trajectories (ksring.trajectory) ------------------------------------


def stored_steps(traj: Trajectory) -> list[int]:
    return sorted(traj.snapshots)


def stored_v(traj: Trajectory, n: int) -> PeriodicField:
    """V^n from the snapshots run() stored; KeyError for a step it did not store."""
    return PeriodicField(traj.snapshots[n], traj.grid.h)


def final(traj: Trajectory) -> PeriodicField:
    return stored_v(traj, traj.tgrid.N)


# --- step entry points (ksring.solver) -----------------------------------
# Each takes a fresh workspace, so a later call never overwrites an earlier
# result, and calls the kernels that the step loop of integrate() chains.


def c_phi(ctx: solver.SchemeContext) -> np.ndarray:
    """The midpoint form's coefficient v_c / (6 h R_{n+1/2}^2) of every step,
    by the formula that gives c_psi = v_c / (24 h R^2) in SchemeContext."""
    R = ctx.R_half
    return ctx.params.v_c / (6.0 * ctx.grid.h * R * R)


def step_coefficients(ctx: solver.SchemeContext, n: int) -> solver.StepCoefficients:
    """Step n's row of ctx.rows()."""
    if not (0 <= n < ctx.tgrid.N):
        raise ValueError(f"step index {n} outside 0..{ctx.tgrid.N - 1}")
    return next(ctx.rows(n, n + 1))


def _fresh_step(ctx: solver.SchemeContext, n: int, values: np.ndarray):
    """Step n's coefficients, a fresh workspace and the rfft of values in its ws.X."""
    sc = step_coefficients(ctx, n)
    ws = solver._Workspace(ctx.grid.J)
    return sc, ws, solver._rfft(values, 1.0, out=ws.X)


def solve_linear_cn(rhs: PeriodicField, n: int, ctx: solver.SchemeContext) -> PeriodicField:
    """Solves ((1/k) Id + (1/2) L^{n+1/2}) X = rhs by Fourier diagonalization."""
    sc, ws, X = _fresh_step(ctx, n, rhs.values)
    X /= sc.denom
    return PeriodicField(solver._irfft(X, ws.inv_J, out=ws.v_next), ctx.grid.h)


def cn_residual(Vn: PeriodicField, Vnp1: PeriodicField, n: int, ctx: solver.SchemeContext) -> PeriodicField:
    """Pointwise defect of (Vn, Vnp1) in the Crank-Nicolson scheme."""
    coeffs = LinearOperatorCoefficients(ctx.c4[n], ctx.c2[n], ctx.c0[n])
    k = ctx.tgrid.k
    h = ctx.grid.h
    vmid = 0.5 * (Vn.values + Vnp1.values)
    res = (
        (Vnp1.values - Vn.values) / k
        + _apply_L_values(coeffs, vmid, h)
        - c_phi(ctx)[n] * operators._phi_values(vmid, vmid)
    )
    return PeriodicField(res, h)


def cn_step(Vn: PeriodicField, n: int, ctx: solver.SchemeContext) -> PeriodicField:
    """Reference step from W^0 = V^n: iterates the midpoint fixed point to ctx.config.reference_tol."""
    sc, ws, X = _fresh_step(ctx, n, Vn.values)
    _, w, _ = solver._reference_step(Vn.values, Vn.values, X, sc, ctx.grid.h, ctx.config.reference_tol, n, ws)
    return PeriodicField(w, ctx.grid.h)


def newton_first_step(v0: PeriodicField, ctx: solver.SchemeContext) -> PeriodicField:
    """Linear first step: quadratic term evaluated at the initial data."""
    sc, ws, X = _fresh_step(ctx, 0, v0.values)
    _, w = solver._newton_step(v0.values, X, v0.values, sc, 1, ws)
    return PeriodicField(w, ctx.grid.h)


def extrapolate(Vn: PeriodicField, Vnm1: PeriodicField) -> PeriodicField:
    """Second order predictor 2 V^n - V^{n-1}."""
    return PeriodicField(2.0 * Vn.values - Vnm1.values, Vn.h)


def newton_iterate(
    Vn: PeriodicField,
    Vhat: PeriodicField,
    Wj: PeriodicField,
    n: int,
    ctx: solver.SchemeContext,
) -> PeriodicField:
    """One sweep of the predictor-anchored linearization."""
    sc, ws, X = _fresh_step(ctx, n, Vn.values)
    base = np.multiply(sc.numer, X, out=ws.base)
    solver._frozen_sweep(Vn.values, Vhat.values, base, sc, ws)  # b and phi(b, b); its solve is the sweep from Vhat
    psi_b = operators.psi_coefficients(ws.pb[1:-1], ws.psi_b, ws.pb)
    _, w = solver._newton_sweep(base, psi_b, ws.phi_bb, Wj.values, Vhat.values, sc, ws)
    return PeriodicField(w, ctx.grid.h)


def mean_step_factor(k: float, R_half: float, alpha: float) -> float:
    """Exact one step multiplier of the discrete mean S^n."""
    a = k * (alpha - 1.0)
    return (2.0 * R_half * R_half - a) / (2.0 * R_half * R_half + a)


# --- height reconstruction (ksring.reconstruct) --------------------------


def interp_v(traj: Trajectory, sigma: float, t: float) -> float:
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
    vn = stored_v(traj, n)
    vp = stored_v(traj, n + 1)
    lo = (1.0 - theta) * vn[i] + theta * vn[i + 1]
    hi = (1.0 - theta) * vp[i] + theta * vp[i + 1]
    return (1.0 - eta) * lo + eta * hi


def cumulative_v(traj: Trajectory, i: int, n: int) -> float:
    """int_0^{sigma_i} Vtilde(., t^n) for node index 0 <= i <= J."""
    v = stored_v(traj, n)
    if not (0 <= i <= v.J):
        raise ValueError(f"node index {i} outside 0..{v.J}")
    return float(_cumulative_nodes(v.values, _pad(v.values)[2:], v.h)[i])


def v_squared_integral(traj: Trajectory, n: int) -> float:
    """int_0^{2pi} Vtilde(., t^n)^2, exact for the interpolant."""
    v = stored_v(traj, n)
    return pw_linear_square_integral(v.values, v.h)


# --- truncated mode system (ksring.stability) ----------------------------
# At frozen radius R the modes of u = sum_m u_m exp(i m sigma) obey
#     du_m/dt = lambda_m u_m - (v_c / 2 R^2) sum_{m1 + m2 = m, m1 m2 != 0} m1 m2 u_{m1} u_{m2};
# at small amplitude this is an independent oracle for the finite difference solver.


def lambda_m(m: int, R: float, params: ModelParams) -> float:
    """Growth rate of mode m >= 1; identically zero for m = 1."""
    if m <= 0:
        raise ValueError(f"mode index must be >= 1, got {m}")
    if not (R > 0):
        raise ValueError(f"R must be > 0, got {R}")
    return _lambda_formula(m, R, params)


def _check_reality(modes: np.ndarray) -> int:
    if modes.ndim != 1 or modes.size % 2 == 0:
        raise ValueError("modes must be a 1d array of odd length 2*m_max + 1")
    M = modes.size // 2
    dev = np.max(np.abs(modes[::-1] - np.conj(modes)))
    if dev > 1e-12 * max(1.0, float(np.max(np.abs(modes)))):
        raise ValueError(f"reality constraint u_-m = conj(u_m) violated by {dev:.3e}")
    return M


def _frozen_rhs(M: int, R: float, params: ModelParams):
    """The truncated system's right-hand side on modes -M..M at frozen R."""
    ms = np.arange(-M, M + 1)
    lam = _lambda_formula(ms, R, params)
    c = params.v_c / (2.0 * R * R)

    def rhs(modes: np.ndarray) -> np.ndarray:
        w = ms * modes
        return lam * modes - c * np.convolve(w, w)[M : 3 * M + 1]

    return rhs


def galerkin_rhs(modes: np.ndarray, R: float, params: ModelParams) -> np.ndarray:
    """Right-hand side of the truncated system.

    modes holds u_m for m = -m_max..m_max at index m + m_max and must satisfy
    u_-m = conj(u_m).  The convolution weights w_m = m u_m make the m1 m2 != 0
    restriction automatic (w_0 = 0).
    """
    modes = np.asarray(modes, dtype=complex)
    return _frozen_rhs(_check_reality(modes), R, params)(modes)


def modes_from_cosines(pairs, m_max: int) -> np.ndarray:
    """Full-spectrum amplitudes of u0 = sum p cos(m sigma): u_{+-m} = p/2."""
    modes = np.zeros(2 * m_max + 1, dtype=complex)
    for p, m in pairs:
        if m > m_max:
            raise ValueError(f"mode {m} exceeds m_max={m_max}")
        modes[m_max + m] += p / 2.0
        modes[m_max - m] += p / 2.0
    return modes


def integrate_modes(
    modes0: np.ndarray,
    R: float,
    params: ModelParams,
    T: float,
    dt: float,
    record_every: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Classical fourth order Runge-Kutta on the truncated system at frozen R.

    Returns (times, path) where path[j] is the full spectrum at times[j];
    the initial state is row 0 and the final time is always recorded.  Only
    modes0 is checked for reality: the stages keep it to roundoff.
    """
    steps = TimeGrid.from_horizon(T, dt).N
    u = np.asarray(modes0, dtype=complex).copy()
    rhs = _frozen_rhs(_check_reality(u), R, params)
    times = [0.0]
    path = [u.copy()]
    for s in range(steps):
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * dt * k1)
        k3 = rhs(u + 0.5 * dt * k2)
        k4 = rhs(u + dt * k3)
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (s + 1) % record_every == 0 or s + 1 == steps:
            times.append((s + 1) * dt)
            path.append(u.copy())
    return np.array(times), np.array(path)
