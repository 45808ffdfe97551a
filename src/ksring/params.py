"""Model constants, time grid, and solver knobs shared across the package."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the interface model.

    delta : fourth-order (surface tension like) coefficient, > 0
    alpha : scaled Lewis number, > 1 (expanding regime)
    v_c   : normal velocity of the undisturbed front, > 0
    R0    : initial circle radius, > 0
    """

    delta: float
    alpha: float
    v_c: float
    R0: float

    def __post_init__(self):
        if not (self.delta > 0):
            raise ValueError(f"delta must be > 0, got {self.delta}")
        if not (self.alpha > 1):
            raise ValueError(f"alpha must be > 1, got {self.alpha}")
        if not (self.v_c > 0):
            raise ValueError(f"v_c must be > 0, got {self.v_c}")
        if not (self.R0 > 0):
            raise ValueError(f"R0 must be > 0, got {self.R0}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid t^n = n*k, n = 0..N."""

    k: float
    N: int

    def __post_init__(self):
        if not (self.k > 0):
            raise ValueError(f"k must be > 0, got {self.k}")
        if not (self.N >= 1):
            raise ValueError(f"N must be >= 1, got {self.N}")

    @property
    def T(self) -> float:
        return self.N * self.k

    def t(self, n: int) -> float:
        return n * self.k

    @classmethod
    def from_horizon(cls, T: float, k: float) -> "TimeGrid":
        N = round(T / k)
        if N < 1 or abs(N * k - T) > 1e-12 * max(1.0, abs(T)):
            raise ValueError(f"horizon T={T} is not an integer multiple of k={k}")
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
        if self.newton_iters < 1:
            raise ValueError(f"newton_iters must be >= 1, got {self.newton_iters}")
        if not (self.reference_tol > 0):
            raise ValueError(f"reference_tol must be > 0, got {self.reference_tol}")


TWO_PI = 2.0 * math.pi
