"""Linearized spectral analysis around the circle solution.

Expanding u(sigma, t) = sum_m u_m(t) exp(i m sigma) at frozen radius R gives

    du_m/dt = lambda_m u_m - (v_c / 2 R^2) sum_{m1 + m2 = m, m1 m2 != 0} m1 m2 u_{m1} u_{m2},

with lambda_{+-1} = 0 and, for |m| >= 2,

    lambda_m = -delta m^4 / R^4 + (m^2/R^2)(alpha - 1 + delta/R^2) - (alpha - 1)/R^2.

Mode m crosses zero exactly on the neutral curve delta = (alpha - 1) R^2 / m^2;
the circle first destabilizes through |m| = 2 at R_* = 2 sqrt(delta/(alpha-1)).
The truncated system doubles as an independent oracle for the finite
difference solver at small amplitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .field import PeriodicField, mode_amplitudes
from .params import ModelParams, TimeGrid

# Modes m = 1..SPECTRAL_M_MAX scanned for unstable sets by the run report and
# the wavenumber suite.
SPECTRAL_M_MAX = 32


def _lambda_formula(m: float | np.ndarray, R: float, params: ModelParams) -> float | np.ndarray:
    # Grouped so the neutral curve cancellation is exact to roundoff, and to +0.0
    # at m = 1; at m = 0 it is -(alpha - 1)/R^2.  m may be an array of modes.
    a = params.alpha - 1.0
    m2 = m * m
    aR2 = a * R * R
    t_growth = m2 * aR2 - params.delta * m2 * m2
    t_rest = m2 * params.delta - aR2
    return (t_growth + t_rest) / R**4


def lambda_m(m: int, R: float, params: ModelParams) -> float:
    """Growth rate of mode m >= 1; identically zero for m = 1."""
    if m <= 0:
        raise ValueError(f"mode index must be >= 1, got {m}")
    if not (R > 0):
        raise ValueError(f"R must be > 0, got {R}")
    return _lambda_formula(m, R, params)


def neutral_delta(m: int, R: float, params: ModelParams) -> float:
    """delta on which lambda_m = 0: (alpha - 1) R^2 / m^2."""
    if m < 2:
        raise ValueError(f"neutral curves need m >= 2, got {m}")
    if not (R > 0):
        raise ValueError(f"R must be > 0, got {R}")
    return (params.alpha - 1.0) * R * R / (m * m)


def critical_radius(params: ModelParams) -> float:
    """2 sqrt(delta/(alpha - 1)), where mode 2 first turns unstable."""
    return 2.0 * math.sqrt(params.delta / (params.alpha - 1.0))


@dataclass(frozen=True)
class SpectralReport:
    """Modal growth rates at one frozen radius."""

    R: float
    m_max: int
    lam: np.ndarray  # lam[m-1] is lambda_m for m = 1..m_max
    R_star: float
    measured_dominant: int | None = None

    @property
    def unstable_modes(self) -> list[int]:
        return [m for m in range(1, self.m_max + 1) if self.lam[m - 1] > 0]

    @property
    def predicted_dominant(self) -> int:
        # Ties within 1e-12 resolve to the smaller mode.
        top = float(np.max(self.lam))
        return 1 + int(np.argmax(self.lam >= top - 1e-12 * max(1.0, abs(top))))


def measured_dominant_mode(probe: PeriodicField) -> int:
    """Index m >= 1 of the largest Fourier amplitude of the probe field."""
    amps = mode_amplitudes(probe)
    return 1 + int(np.argmax(amps[1:]))


def spectral_report(
    R: float,
    params: ModelParams,
    m_max: int,
    probe: PeriodicField | None = None,
) -> SpectralReport:
    if m_max < 2:
        raise ValueError(f"m_max must be >= 2, got {m_max}")
    if not (R > 0):
        raise ValueError(f"R must be > 0, got {R}")
    lam = _lambda_formula(np.arange(1.0, m_max + 1), R, params)  # float modes: m * m cannot wrap
    measured = measured_dominant_mode(probe) if probe is not None else None
    return SpectralReport(
        R=R,
        m_max=m_max,
        lam=lam,
        R_star=critical_radius(params),
        measured_dominant=measured,
    )


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
