"""Time integration of the gradient form of the interface equation.

The unknown v(sigma, t) = u_sigma solves, on the circle of radius R(t),

    v_t + (delta/R^4) v_ssss + (1/R^2)(alpha - 1 + delta/R^2) v_ss
        + ((alpha - 1)/R^2) v - (v_c/R^2) v v_s = 0,

2*pi periodic with zero mean.  The Crank-Nicolson discretization reads

    (V^{n+1} - V^n)/k + L^{n+1/2} V^{n+1/2} = (v_c / (6 h R_{n+1/2}^2)) phi(V^{n+1/2}, V^{n+1/2})

with V^{n+1/2} = (V^n + V^{n+1})/2, L the discrete linear operator at the
half-step radius, and phi the 3 point quadrature of 6h v v_s.  Two step
drivers are provided:

  * the reference driver solves each nonlinear step to convergence by fixed
    point sweeps on the midpoint form (each sweep is one circulant solve),
    started at the predictor 3 (V^n - V^{n-1}) + V^{n-2};
  * the production driver performs one linear solve for step one,

        (W^1 - v^0)/k + (1/2) L^{1/2} (v^0 + W^1) = (v_c/(6 h R_{1/2}^2)) phi(v^0, v^0),

    then for n >= 2 extrapolates Vhat = 2 V^{n-1} - V^{n-2} and applies j_n
    sweeps of the linearization

        (W^{j+1} - V^n)/k + (1/2) L (W^{j+1} + V^n)
            = (v_c/(24 h R^2)) [ psi(V^n + Vhat, W^j - Vhat) + phi(V^n + Vhat, V^n + Vhat) ],

    seeded with W^0 = Vhat.  The identity phi(V,V) - phi(W,W) =
    psi(W, V-W) + phi(V-W, V-W) makes each sweep a Newton-type correction
    with the quadratic remainder anchored at the predictor.

Step one, every reference sweep and the first Newton sweep (where
psi(b, W^0 - Vhat) = 0) are one solve: the quadratic term frozen at
b = V^n + w, as (v_c/(24 h R^2)) phi(b, b), with w = V^n, the current
iterate or Vhat.

All linear systems share the matrix (1/k) Id + (1/2) L, symmetric circulant,
and are solved exactly by discrete Fourier diagonalization: mode m is divided
by 1/k + mu_m/2 with mu_m the symbol of L.  Summing the scheme over the grid
shows the discrete mean S^n = h sum_i V_i^n obeys

    S^{n+1} = ((2 R_{n+1/2}^2 - k(alpha - 1)) / (2 R_{n+1/2}^2 + k(alpha - 1))) S^n

exactly (the phi and psi stencils telescope to zero), so a zero-mean start
stays zero mean.  The stepper keeps the state in Fourier space and drops the
roundoff-level mean of the quadratic terms, which makes the recursion hold to
machine precision along the computed trajectory.
"""

from __future__ import annotations

import math
import numbers
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from time import perf_counter
from typing import NamedTuple

import numpy as np

from .field import GridSpec, PeriodicField, _irfft, _norm_values, _rfft, _wrap, norm_h, pw_linear_square_integral
from .operators import (
    LinearOperatorCoefficients,
    _phi_values,
    _psi_apply,
    _symbol,
    psi_coefficients,
    second_difference_symbol,
)
from .params import ModelParams, SolverConfig, SolverError, TimeGrid
from .radius import RadiusLaw
from .stability import critical_radius


@dataclass(frozen=True)
class AdmissibilityReport:
    """Existence conditions for the implicit scheme on [0, T]."""

    r0_bound: float
    r0_pass: bool
    k_bound: float
    k_pass: bool
    R_T: float

    @property
    def passed(self) -> bool:
        return self.r0_pass and self.k_pass

    def __str__(self) -> str:
        return f"R0 > {self.r0_bound:.6g} is {self.r0_pass}, k < {self.k_bound:.6g} is {self.k_pass}"

    def to_dict(self) -> dict:
        """report.json's admissibility block."""
        bounds = {"R0_min": self.r0_bound, "k_max": self.k_bound, "R_T": self.R_T}
        return {"bounds": bounds, "pass": self.passed, "R0_pass": self.r0_pass, "k_pass": self.k_pass}


def check_admissibility(params: ModelParams, tgrid: TimeGrid, law: RadiusLaw | None = None) -> AdmissibilityReport:
    """R0 must exceed sqrt(delta/(alpha-1)), half the critical radius, and k
    must stay below 8*delta/(alpha - 1 - delta/R(T)^2)^2, R(T) from law
    (RadiusLaw(params) if none is given)."""
    a = params.alpha - 1.0
    r0_bound = critical_radius(params) / 2.0  # exact: halving undoes its doubling
    R_T = (law if law is not None else RadiusLaw(params)).radius_at(tgrid.T)
    try:  # a float's power raises where an array's would give inf
        denom = a - params.delta / R_T**2
        k_bound = math.inf if denom == 0 else 8.0 * params.delta / denom**2
    except OverflowError:
        raise SolverError(f"the bound on k overflows at delta = {params.delta:g}, R(T) = {R_T:g}") from None
    return AdmissibilityReport(
        r0_bound=r0_bound,
        r0_pass=params.R0 > r0_bound,
        k_bound=k_bound,
        k_pass=tgrid.k < k_bound,
        R_T=R_T,
    )


class StepCoefficients(NamedTuple):
    """What the step kernels read of the step from t^n to t^{n+1}; R = R_{n+1/2}."""

    denom: np.ndarray     # 1/k + mu/2, complex128
    numer: np.ndarray     # 1/k - mu/2, complex128
    c_psi: float          # v_c / (24 h R^2)


class SchemeContext:
    """Bundles the model, grids and radius law of a run, with the tables
    every step reads: s_m and s_m^2 of the grid, the radius at the nodes
    t^n and the half steps, and c4, c2, c0, c_psi per step."""

    def __init__(
        self,
        params: ModelParams,
        tgrid: TimeGrid,
        grid: GridSpec,
        law: RadiusLaw | None = None,
    ):
        self.params = params
        self.tgrid = tgrid
        self.grid = grid
        self.law = law if law is not None else RadiusLaw(params)
        if self.law.params != params:
            raise ValueError(f"the radius law is for {self.law.params}, the run for {params}")
        self.s = second_difference_symbol(np.arange(grid.J // 2 + 1), grid.h)
        self.s2 = self.s * self.s
        # the radius at j k/2, j = 0..2N: (2n) k/2 and (2n + 1) k/2 are one
        # rounding of the same reals as n k and (n + 1/2) k.  Solved 1024
        # times at once, so the solve's temporaries stay small beside R_all.
        R_all = np.empty(2 * tgrid.N + 1)
        for j0 in range(0, R_all.size, 1024):
            j1 = min(j0 + 1024, R_all.size)
            R_all[j0:j1] = self.law.radii(np.arange(j0, j1) * (0.5 * tgrid.k))
        self.R_nodes = R_all[::2]
        self.R_half = R = R_all[1::2]
        try:  # a radius whose R^4 overflows, or underflows to 0, fails the run here, before step 0
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                self.c4, self.c2, self.c0 = LinearOperatorCoefficients.at_radius(params, R)
                self.c_psi = params.v_c / (24.0 * grid.h * R * R)
                # R0 and R(T) too: the run's smallest and largest radii, whose growth rates its report takes
                LinearOperatorCoefficients.at_radius(params, R_all[[0, -1]])
        except FloatingPointError as e:
            raise SolverError(
                f"the operator coefficients are not finite for R in [{R_all[0]:g}, {R_all[-1]:g}]: {e}"
            ) from None

    def rows(self, n0: int, n1: int):
        """StepCoefficients of steps n0..n1-1, each array operation serving a block of steps.

        The denominators are checked as reals; denom and numer are then cast
        to complex once per block, so dividing or multiplying a spectrum by
        them skips NumPy's per-call cast and gives the same values."""
        inv_k = 1.0 / self.tgrid.k
        per_block = max(1, 2048 // self.s.size)  # a block's arrays stay at 16 kB
        for b0 in range(n0, n1, per_block):
            b = slice(b0, min(b0 + per_block, n1))
            block = LinearOperatorCoefficients(self.c4[b, None], self.c2[b, None], self.c0[b, None])
            half_mu = 0.5 * _symbol(block, self.s, self.s2)
            denom, numer = inv_k + half_mu, inv_k - half_mu
            bad = denom.min(axis=1) <= 0.0
            denom_c, numer_c = denom.astype(complex), numer.astype(complex)
            for i, n in enumerate(range(b.start, b.stop)):
                if bad[i]:
                    raise SolverError(
                        f"non positive circulant denominator at mode {int(np.argmin(denom[i]))}, "
                        f"step {n}; the time step violates the existence bound",
                        step=n,
                    )
                yield StepCoefficients(denom_c[i], numer_c[i], self.c_psi[n])


class _Workspace:
    """The arrays the step kernels write into at J grid points.

    An integration makes one and every step and sweep reuses it, so a step
    allocates no array.  v_prev2, v_prev, vn and v_next hold V^{n-2} to
    V^{n+1}, X and X_next the rfft spectra of V^n and V^{n+1}; rotate()
    advances them a step.  A step writes its predictor over V^{n-2}.
    pb holds the frozen sweep's b = V^n + w and pw the Newton sweep's
    W^j - Vhat, each padded by _wrap, as the stencils take them.  inv_J is
    the irfft normalization 1/J.
    """

    def __init__(self, J: int):
        self.v_prev2, self.v_prev, self.vn, self.v_next, self.phi_bb, self.rhs, self.tmp = (
            np.empty(J) for _ in range(7)
        )
        self.psi_b = (np.empty(J), np.empty(J), np.empty(J))
        self.pb, self.pw = np.empty(J + 2), np.empty(J + 2)
        self.X, self.X_next, self.base = (np.empty(J // 2 + 1, dtype=complex) for _ in range(3))
        self.inv_J = 1.0 / J

    def rotate(self):
        self.v_prev2, self.v_prev, self.vn, self.v_next = self.v_prev, self.vn, self.v_next, self.v_prev2
        self.X, self.X_next = self.X_next, self.X


# Step kernels: state as values and rfft spectrum X in, the next (spectrum,
# values) out, in ws.X_next and ws.v_next, with sc the step's
# StepCoefficients.  The step loop of Integration chains them on its own
# workspace.


def _solve(base, nl, sc, ws: _Workspace):
    """(base + rfft(nl)) / denom and its values; base = numer * X is fixed over a step."""
    X_next = _rfft(nl, 1.0, out=ws.X_next)
    # The quadratic stencils telescope to zero mean; drop their roundoff there.
    X_next[0] = 0.0
    X_next += base
    X_next /= sc.denom
    return X_next, _irfft(X_next, ws.inv_J, out=ws.v_next)


def _frozen_sweep(vn, w, base, sc, ws: _Workspace):
    """Linear step with the quadratic term frozen at b = V^n + w:
    c_psi phi(b, b), with b left padded in ws.pb and phi(b, b) in ws.phi_bb.

    b is twice the midpoint (V^n + w)/2, phi(b, b) four times its phi and
    c_psi a quarter of c_phi, each scaling by a power of two, so this is the
    midpoint form c_phi phi(vq, vq) bit for bit unless an intermediate
    underflows to a subnormal or overflows.  With w = V^n it is the scheme's
    first step, with w the current iterate a reference sweep, and with
    w = Vhat the first Newton sweep, where psi(b, W^0 - Vhat) = 0.
    """
    np.add(vn, w, out=ws.pb[1:-1])
    pb = _wrap(ws.pb)
    phi_bb = _phi_values(pb, pb, ws.phi_bb, ws.tmp)
    return _solve(base, np.multiply(sc.c_psi, phi_bb, out=ws.rhs), sc, ws)


def _quadratic_predictor(ws: _Workspace):
    """W^0 = 3 (V^n - V^{n-1}) + V^{n-2}, O(k^3) off V^{n+1}, over V^{n-2}."""
    d = np.subtract(ws.vn, ws.v_prev, out=ws.tmp)
    d *= 3.0
    return np.add(d, ws.v_prev2, out=ws.v_prev2)


def _reference_step(vn, w, X, sc, h: float, tol: float, n: int, ws: _Workspace):
    """Midpoint fixed point sweeps from w to relative update tolerance tol;
    returns (spectrum, values, sweeps).

    Each sweep solves the circulant system with the quadratic term taken at
    the previous midpoint iterate; the contraction factor is of order
    k * v_c * |v| / R^2, far below one for admissible steps.
    """
    base = np.multiply(sc.numer, X, out=ws.base)
    for sweeps in range(1, 51):
        if w is ws.v_next:  # keep the iterate: sweep into v_prev2, whose predictor is spent
            ws.v_prev2, ws.v_next = ws.v_next, ws.v_prev2
        X_next, w_next = _frozen_sweep(vn, w, base, sc, ws)
        delta = np.subtract(w_next, w, out=ws.tmp)
        w = w_next
        # "not >" stops a NaN sweep too, which the step loop then reports as not finite
        if not _norm_values(delta, h) > tol * max(1.0, _norm_values(w, h)):
            return X_next, w, sweeps
    raise SolverError(f"reference step {n} did not converge in 50 sweeps", step=n)


def _newton_sweep(base, psi_b, phi_bb, w, vhat, sc, ws: _Workspace):
    """One sweep of the predictor-anchored linearization from iterate w."""
    np.subtract(w, vhat, out=ws.pw[1:-1])
    nl = _psi_apply(psi_b, _wrap(ws.pw), ws.rhs, ws.tmp)
    nl += phi_bb
    nl *= sc.c_psi
    return _solve(base, nl, sc, ws)


def _newton_step(vn, X, v_prev, sc, j_n: int, ws: _Workspace):
    """j_n sweeps from W^0 = Vhat = 2 V^n - V^{n-1}, the first a frozen sweep.

    With v_prev = V^n, Vhat = V^n exactly and one sweep is the first step."""
    vhat = np.multiply(2.0, vn, out=ws.v_prev2)
    vhat -= v_prev
    base = np.multiply(sc.numer, X, out=ws.base)
    X_next, w = _frozen_sweep(vn, vhat, base, sc, ws)
    if j_n > 1:
        psi_b = psi_coefficients(ws.pb, ws.psi_b)
        for _ in range(j_n - 1):
            X_next, w = _newton_sweep(base, psi_b, ws.phi_bb, w, vhat, sc, ws)
    return X_next, w


class Integration(Iterator):
    """One run: the iterator of (m, V^m) at m = 0, every, 2*every, ..., N,
    and its record; integrate() builds it.

    S[n] is the discrete mean h*sum V^n, Q[n] the exact integral of the
    squared piecewise linear interpolant of V^n, A[n] the trapezoid sum of
    Q/(Rdot R^2) behind the mean height, R_nodes[n] the radius at t^n,
    solve_s the seconds of integrate() and of stepping, and reference_sweeps
    the fixed point sweeps of a reference run.  S, Q and A are final up to
    each yielded step, so a consumer that stops at N (zip, say) holds a
    finished record.  It stores no steps: a yielded V^m is the workspace's
    array, valid until the next step.  A SolverError ends the iteration.
    """

    def __init__(self, ctx: SchemeContext, config: SolverConfig, v0: np.ndarray, method: str, every: int):
        self.params, self.tgrid, self.grid, self.law = ctx.params, ctx.tgrid, ctx.grid, ctx.law
        self.method, self.R_nodes, self._config = method, ctx.R_nodes, config
        self.S, self.Q, self.A = np.full((3, ctx.tgrid.N + 1), np.nan)
        self.solve_s, self.reference_sweeps = 0.0, 0
        self._ctx, self._every = ctx, every
        self._ws = ws = _Workspace(ctx.grid.J)
        # V^0 enters the loop where a step leaves V^{n+1}; rotating it in makes
        # V^{-1} = V^{-2} = V^0, so both predictors are V^0 at the first step,
        # and a Newton first step is one frozen sweep.
        ws.v_prev[:] = ws.vn[:] = ws.v_next[:] = v0
        self._rdot_R2 = ctx.law.rate(ctx.R_nodes) * (ctx.R_nodes * ctx.R_nodes)
        # Nothing the record holds refers back to it: a dropped unfinished run is freed without a cycle.
        self._rows, self._m = ctx.rows(0, ctx.tgrid.N), -1  # _m: the step in ws.vn
        self._advance(0)  # V^0 recorded, or SolverError at step 0
        self._to = 0  # the step the next call yields; None once the run has ended

    def __next__(self) -> tuple[int, np.ndarray]:
        t0, last = perf_counter(), self._to
        if last is None:
            raise StopIteration
        self._to = None  # a SolverError below ends the run
        self._advance(last)
        if last < self.tgrid.N:
            self._to = min(last + self._every, self.tgrid.N)
        self.solve_s += perf_counter() - t0
        return last, self._ws.vn

    def _advance(self, last: int) -> None:
        """The one step loop: steps from the step in hand to V^last, recording
        S^m, Q^m, A^m and the finiteness of each V^m, V^0 included.
        A adds a trapezoid term of g = Q/(Rdot R^2) a step, in np.cumsum's order."""
        ctx, ws, rows = self._ctx, self._ws, self._rows
        h, half_k = ctx.grid.h, 0.5 * ctx.tgrid.k
        j_n, tol = self._config.newton_iters, self._config.reference_tol
        S, Q, A, rdot_R2 = self.S, self.Q, self.A, self._rdot_R2
        reference = self.method == "reference"
        first = self._m + 1
        # Overflow or an invalid operation anywhere in a step fails the run at
        # that step instead of carrying inf or NaN forward.  The error state
        # is entered and left within one call, never across a yield: blocks
        # left open by interleaved integrations would be restored out of order.
        with np.errstate(over="raise", invalid="raise"):
            g = Q[first - 1] / rdot_R2[first - 1] if first else None
            for m in range(first, last + 1):
                try:
                    if m == 0:
                        X_next, v_next = _rfft(ws.v_next, 1.0, out=ws.X_next), ws.v_next
                    elif reference:
                        X_next, v_next, sweeps = _reference_step(
                            ws.vn, _quadratic_predictor(ws), ws.X, next(rows), h, tol, m - 1, ws
                        )
                        self.reference_sweeps += sweeps
                    else:
                        X_next, v_next = _newton_step(ws.vn, ws.X, ws.v_prev, next(rows), 1 if m == 1 else j_n, ws)
                    Q[m] = pw_linear_square_integral(v_next, h)
                    g_next = Q[m] / rdot_R2[m]
                    A[m] = A[m - 1] + half_k * (g + g_next) if m else 0.0
                    g = g_next
                except FloatingPointError as e:
                    raise SolverError(f"floating point failure: {e}", step=m) from e
                if not math.isfinite(Q[m]):
                    raise SolverError(f"the solution is not finite (Q = {Q[m]})", step=m)
                S[m] = h * X_next[0].real
                ws.rotate()
        self._m = last


def integrate(
    params: ModelParams,
    tgrid: TimeGrid,
    config: SolverConfig,
    v0: PeriodicField,
    *,
    law: RadiusLaw | None = None,
    method: str = "newton",
    every: int = 1,
    require_admissible: bool = True,
) -> Integration:
    """The run from v0 on v0's grid, as an iterator of (m, V^m) at m = 0,
    every, 2*every, ..., N and the run's record; see Integration.

    method "newton" uses the linear first step plus j_n linearization sweeps
    per step; method "reference" solves every step to convergence.  Bad
    arguments, a failed admissibility check (if required) and a V^0 that is
    not finite raise here, not at the first step.
    """
    t0 = perf_counter()
    if method not in ("newton", "reference"):
        raise ValueError(f"unknown method {method!r}")
    if not isinstance(every, numbers.Integral) or every < 1:
        raise ValueError(f"every must be >= 1 and an integer, got {every!r}")
    ctx = SchemeContext(params, tgrid, v0.grid, law=law)
    if require_admissible and not (report := check_admissibility(params, tgrid, ctx.law)).passed:
        raise SolverError(f"admissibility failed: {report}")

    steps = Integration(ctx, config, v0.values, method, every)
    if abs(steps.S[0]) > 1e-10 * max(1.0, norm_h(v0)):
        warnings.warn(f"initial mean {steps.S[0]:.3e} is nonzero; it decays geometrically", stacklevel=2)
    steps.solve_s = perf_counter() - t0
    return steps
