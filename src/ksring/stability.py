"""Linear growth rates of the circle solution's Fourier modes.

At frozen radius R, mode m of u(sigma, t) = sum_m u_m(t) exp(i m sigma)
grows at lambda_{+-1} = 0 and, for |m| >= 2,

    lambda_m = -delta m^4 / R^4 + (m^2/R^2)(alpha - 1 + delta/R^2) - (alpha - 1)/R^2.

Mode m crosses zero exactly on the neutral curve delta = (alpha - 1) R^2 / m^2;
the circle first destabilizes through |m| = 2 at R_* = 2 sqrt(delta/(alpha-1)).
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .field import PeriodicField, mode_amplitudes
from .params import ModelParams

# Modes m = 1..SPECTRAL_M_MAX scanned for unstable sets by selection().
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


def spectral_report(R: float, params: ModelParams, m_max: int) -> SpectralReport:
    if m_max < 2:
        raise ValueError(f"m_max must be >= 2, got {m_max}")
    if not (R > 0):
        raise ValueError(f"R must be > 0, got {R}")
    lam = _lambda_formula(np.arange(1.0, m_max + 1), R, params)  # float modes: m * m cannot wrap
    return SpectralReport(R=R, m_max=m_max, lam=lam)


def selection(params: ModelParams, R_T: float, u_T: PeriodicField) -> dict:
    """The selection verdict of a run ending at radius R_T with height u_T:
    the run report's spectral block, which the wavenumber suite reads too."""
    rep = spectral_report(R_T, params, SPECTRAL_M_MAX)
    rep0 = spectral_report(params.R0, params, SPECTRAL_M_MAX)
    return {
        "R_star": critical_radius(params),
        "R_T": R_T,
        "unstable_at_R0": rep0.unstable_modes,
        "predicted_dominant_at_R0": rep0.predicted_dominant,
        "unstable_at_R_T": rep.unstable_modes,
        "measured_dominant": measured_dominant_mode(u_T),
    }
