"""Finite difference solver for a Kuramoto-Sivashinsky equation posed on a
uniformly expanding circle, with interface reconstruction and linear
stability diagnostics."""

from .field import (
    GridSpec,
    PeriodicField,
    centered_difference,
    mode_amplitudes,
    norm_h,
    sample_cosine_sum,
    sample_cosine_sum_dsigma,
)
from .operators import LinearOperatorCoefficients
from .params import ModelParams, SolverConfig, TimeGrid
from .radius import RadiusLaw, radius_rate
from .reconstruct import curve_points, mean_I, mean_I_path, reconstruct_u
from .solver import (
    AdmissibilityReport,
    Integration,
    SchemeContext,
    SolverError,
    check_admissibility,
    integrate,
)
from .stability import (
    SpectralReport,
    critical_radius,
    measured_dominant_mode,
    spectral_report,
)

__all__ = [
    "AdmissibilityReport",
    "GridSpec",
    "Integration",
    "LinearOperatorCoefficients",
    "ModelParams",
    "PeriodicField",
    "RadiusLaw",
    "SchemeContext",
    "SolverConfig",
    "SolverError",
    "SpectralReport",
    "TimeGrid",
    "centered_difference",
    "check_admissibility",
    "critical_radius",
    "curve_points",
    "integrate",
    "mean_I",
    "mean_I_path",
    "measured_dominant_mode",
    "mode_amplitudes",
    "norm_h",
    "radius_rate",
    "reconstruct_u",
    "sample_cosine_sum",
    "sample_cosine_sum_dsigma",
    "spectral_report",
]

__version__ = "0.1.0"
