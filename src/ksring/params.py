"""Model constants, time grid, solver knobs and errors shared across the package.

Each bound on a field is written once, in its container's constructor."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


class FieldErrors(ValueError):
    """Invalid fields of one container; `problems` holds (field, message) pairs."""

    def __init__(self, problems: list[tuple[str, str]]):
        super().__init__("; ".join(f"{name}: {message}" for name, message in problems))
        self.problems = problems


class SolverError(RuntimeError):
    """Solver failure; `step` is the failing step's index, or None outside the step loop."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


def require(*checks: tuple[bool, str, str]) -> None:
    """Raises FieldErrors naming every field with an (ok, field, message)
    check that fails, each by the first such check."""
    failed: dict[str, str] = {}
    for ok, name, message in checks:
        if not ok:
            failed.setdefault(name, message)
    if failed:
        raise FieldErrors(list(failed.items()))


def finite(value, name: str) -> tuple[bool, str, str]:
    """The require check that value is a finite number."""
    return (math.isfinite(value), name, f"must be finite, got {value}")


def integer(value, name: str) -> tuple[bool, str, str]:
    """The require check that value is an integer: an int or a NumPy integer."""
    return (isinstance(value, numbers.Integral), name, f"must be an integer, got {value!r}")


# The largest count of grid points or cells: every index up to it is an
# exact double.  A run tabulates the radius at the half steps j*(k/2),
# j = 0..2N, so its step count is bounded by half of it.
MAX_COUNT = 2**53
MAX_STEPS = MAX_COUNT // 2


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the interface model.

    delta : fourth-order (surface tension like) coefficient, > 0
    alpha : scaled Lewis number, > 1 (expanding regime)
    v_c   : normal velocity of the undisturbed front, > 0
    R0    : initial circle radius, > 0

    Every field must be finite.
    """

    delta: float
    alpha: float
    v_c: float
    R0: float

    def __post_init__(self):
        require(
            finite(self.delta, "delta"),
            (self.delta > 0, "delta", f"must be > 0, got {self.delta}"),
            finite(self.alpha, "alpha"),
            (self.alpha > 1, "alpha", f"must be > 1, got {self.alpha}"),
            finite(self.v_c, "v_c"),
            (self.v_c > 0, "v_c", f"must be > 0, got {self.v_c}"),
            finite(self.R0, "R0"),
            (self.R0 > 0, "R0", f"must be > 0, got {self.R0}"),
        )


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid t^n = n*k, n = 0..N, N <= MAX_STEPS."""

    k: float
    N: int

    def __post_init__(self):
        require(
            *self._step_checks(self.k),
            integer(self.N, "N"),
            (self.N >= 1, "N", f"must be >= 1, got {self.N}"),
            (self.N <= MAX_STEPS, "N", f"must be at most 2**52, got {self.N}"),
        )

    @staticmethod
    def _step_checks(k: float) -> tuple[tuple[bool, str, str], ...]:
        """The require checks of the time step k."""
        return finite(k, "k"), (k > 0, "k", f"must be > 0, got {k}")

    @property
    def T(self) -> float:
        return self.N * self.k

    @classmethod
    def from_horizon(cls, T: float, k: float) -> "TimeGrid":
        """The grid with N = T/k steps; T must be a finite positive multiple of k.

        k is held to the grid's own checks here, before N is derived, so a bad
        k is named as such and never as a T that is no multiple of it; a T
        of more than MAX_STEPS steps is named before the grid is built."""
        require(finite(T, "T"), (T > 0, "T", f"must be > 0, got {T}"), *cls._step_checks(k))
        N = round(T / k) if math.isfinite(T / k) else 0
        multiple = N >= 1 and abs(N * k - T) <= 1e-12 * max(1.0, T)
        require(
            (N <= MAX_STEPS, "T", f"must be at most 2**52 steps of k, got T/k = {T / k:g}"),
            (multiple, "T", f"must be an integer multiple of k, got T={T}, k={k}"),
        )
        return cls(k=k, N=N)


@dataclass(frozen=True)
class SolverConfig:
    """Iteration policy for the implicit step.

    newton_iters  : fixed iteration count j_n per step of the linearized scheme
    reference_tol : relative update tolerance for the fully iterated reference step
    """

    newton_iters: int = 3
    reference_tol: float = 1e-13

    def __post_init__(self):
        require(
            integer(self.newton_iters, "newton_iters"),
            (self.newton_iters >= 1, "newton_iters", f"must be >= 1, got {self.newton_iters}"),
            finite(self.reference_tol, "reference_tol"),
            (self.reference_tol > 0, "reference_tol", f"must be > 0, got {self.reference_tol}"),
        )


TWO_PI = 2.0 * math.pi
