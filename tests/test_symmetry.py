"""The scheme's symmetries on both step paths and in the height reconstruction.

Every index shift and the reflection (Rv)_i = -v_{-i}, the slope of the
mirrored height u(-sigma), commute with the scheme in exact arithmetic: the
stencils, the circulant solve and the radius law all respect them.  So a run
from a shifted or reflected start is the shifted or reflected run, whatever
the rounding of the implementation, and these checks stay valid when a
change legitimately moves the bits of the other tests' oracles.

Measured on the run below (v_c = 1, R0 = 6, J = 128, 200 steps, five random
modes; eight draws of the modes, max|v| of 7.8 to 22): a shift by J/2 is
bit-identical on both paths, a one-point shift agrees to at most 1.2e-15 of
max|v| and the reflection to at most 4.9e-16.  TOL keeps a margin of about
80 times over those; the planted one-sided stencil below breaks reflection
by 7e-3 to 2e-2 of max|v| (three draws).  The height is the cumulative integral of v, which closes
only up to the discrete mean S^N = h sum V^N (here 4e-16 to 2e-14): a
shift or mirror moves where that jump falls, so the reconstructed heights
agree to |S^N| plus roundoff, and |S^N| + TOL max|u| bounds them.
"""

import numpy as np
import pytest

import ksring.solver as solver
from ksring.field import GridSpec, PeriodicField
from ksring.params import ModelParams, SolverConfig, TimeGrid
from ksring.reconstruct import reconstruct_u
from oracles import run

PARAMS = ModelParams(delta=4.0, alpha=1.5, v_c=1.0, R0=6.0)
GRID = GridSpec(128)
TGRID = TimeGrid(k=0.01, N=200)
TOL = 1e-13  # relative to max|v|
METHODS = ("newton", "reference")


def _start() -> np.ndarray:
    """The slope of five random modes with random amplitudes and phases: no
    reflection or shift of it is the start itself."""
    rng = np.random.default_rng(7)
    modes = rng.choice(np.arange(1, 11), 5, replace=False)
    amps, phases = rng.uniform(0.2, 1.0, 5), rng.uniform(0.0, 2.0 * np.pi, 5)
    s = GRID.sigma
    return sum(-a * m * np.sin(m * s + p) for a, m, p in zip(amps, modes, phases))


def _mirror(v: np.ndarray) -> np.ndarray:
    """(Rv)_i = -v_{-i}, indices mod J, along the last axis."""
    return -np.roll(v[..., ::-1], 1, axis=-1)


def _steps(v0: np.ndarray, method: str) -> np.ndarray:
    """V^0..V^N of the run from v0, one row a step."""
    traj = run(PARAMS, TGRID, GRID, SolverConfig(), PeriodicField(v0), method=method)
    return np.array([traj.snapshots[n] for n in range(TGRID.N + 1)])


def _gap(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _reflection_gap(method: str) -> float:
    base = _steps(_start(), method)
    return _gap(_steps(_mirror(_start()), method), _mirror(base))


@pytest.mark.parametrize("method", METHODS)
def test_a_half_turn_shift_gives_the_shifted_run_bit_for_bit(method):
    base = _steps(_start(), method)
    shifted = _steps(np.roll(_start(), GRID.J // 2), method)
    np.testing.assert_array_equal(shifted.view(np.int64), np.roll(base, GRID.J // 2, axis=1).view(np.int64))


@pytest.mark.parametrize("method", METHODS)
def test_a_one_point_shift_gives_the_shifted_run(method):
    base = _steps(_start(), method)
    assert _gap(_steps(np.roll(_start(), 1), method), np.roll(base, 1, axis=1)) <= TOL


@pytest.mark.parametrize("method", METHODS)
def test_the_reflected_start_gives_the_reflected_run(method):
    assert _reflection_gap(method) <= TOL


@pytest.mark.parametrize("method", METHODS)
def test_a_one_sided_stencil_breaks_reflection(monkeypatch, method):
    # the planted defect pv[2:] -> pv[1:-1] in phi: (v_{i-1} + 2 v_i)(w_{i+1} - w_{i-1})
    # is no longer odd under reflection, and the reflection test must see it
    def one_sided(pv, pw, out, tmp):
        out = np.add(pv[:-2], pv[1:-1], out=out)
        out += pv[1:-1]
        out *= np.subtract(pw[2:], pw[:-2], out=tmp)
        return out

    monkeypatch.setattr(solver, "_phi_values", one_sided)
    assert _reflection_gap(method) > 1e6 * TOL


@pytest.mark.parametrize("method", METHODS)
def test_reconstruct_u_shifts_and_mirrors_the_height(method):
    N = TGRID.N
    traj = run(PARAMS, TGRID, GRID, SolverConfig(), PeriodicField(_start()), method=method, store_stride=N)
    v = traj.snapshots[N]
    u = reconstruct_u(traj, 0.0, N, v).values
    bound = abs(traj.S[N]) + TOL * np.max(np.abs(u))
    for shift in (1, 5, GRID.J // 2):
        assert np.max(np.abs(reconstruct_u(traj, 0.0, N, np.roll(v, shift)).values - np.roll(u, shift))) <= bound
    mirrored = np.roll(u[::-1], 1)  # u_{-i}
    assert np.max(np.abs(reconstruct_u(traj, 0.0, N, _mirror(v)).values - mirrored)) <= bound
