"""Periodic grid vectors on the circle and their discrete norms.

A field is J real samples V_0..V_{J-1} on the uniform grid sigma_i = i*h,
h = 2*pi/J, identified periodically (V_{i+J} = V_i).  The discrete L2 norm
is ||V||_h = (h*sum V_i^2)^(1/2); first and second difference seminorms and
the h-weighted inner product follow the same convention.  The periodic shift
(_pad) and second difference (_lap_values) of every stencil and the norm of
every ||.||_h (_norm_values, on a values array) live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import TWO_PI, require


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid: J points, spacing h = 2*pi/J."""

    J: int

    def __post_init__(self):
        require((self.J >= 8 and self.J % 2 == 0, "J", f"must be even and >= 8, got {self.J}"))

    @property
    def h(self) -> float:
        return TWO_PI / self.J

    @property
    def sigma(self) -> np.ndarray:
        return np.arange(self.J) * self.h


class PeriodicField:
    """Immutable real field on a periodic grid.

    Indexing wraps: field[i] is values[i mod J] for any integer i.
    """

    __slots__ = ("values", "h")

    def __init__(self, values, h: float | None = None):
        v = np.array(values, dtype=float)
        if v.ndim != 1:
            raise ValueError("field values must be one dimensional")
        grid = GridSpec(v.size)
        if h is None:
            h = grid.h
        elif abs(h * grid.J - TWO_PI) > 1e-14 * TWO_PI:
            raise ValueError(f"h*J must equal 2*pi, got h={h}, J={grid.J}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "h", float(h))

    def __setattr__(self, name, value):
        raise AttributeError("PeriodicField is immutable")

    @property
    def J(self) -> int:
        return self.values.size

    def __len__(self) -> int:
        return self.values.size

    def __getitem__(self, i: int) -> float:
        return float(self.values[i % self.values.size])


def _pad(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """v between its periodic neighbours, [v_{J-1}, v, v_0], written into out
    (J + 2 entries) when given; p[:-2] and p[2:] are v shifted by one."""
    if out is None:
        out = np.empty(v.size + 2)
    out[1:-1] = v
    return _wrap(out)


def _wrap(p: np.ndarray) -> np.ndarray:
    """Fills the end entries of p from its middle, as _pad does, so a kernel
    can compute an operand in place in p[1:-1] and pad it."""
    p[0], p[-1] = p[-2], p[1]
    return p


def _lap_values(v: np.ndarray, h: float) -> np.ndarray:
    """(v_{i-1} - 2 v_i + v_{i+1}) / h^2, the second difference D_h v."""
    p = _pad(v)
    return (p[:-2] - 2.0 * v + p[2:]) / h**2


def _norm_values(v: np.ndarray, h: float) -> float:
    """(h sum v_i^2)^(1/2), the discrete L2 norm of the values v."""
    return math.sqrt(h * float(np.dot(v, v)))


def zeros(grid: GridSpec) -> PeriodicField:
    return PeriodicField(np.zeros(grid.J), grid.h)


def _check_same_grid(V: PeriodicField, W: PeriodicField):
    if V.J != W.J:
        raise ValueError(f"grid size mismatch: {V.J} vs {W.J}")


def norm_h(V: PeriodicField) -> float:
    return _norm_values(V.values, V.h)


def inner_h(V: PeriodicField, W: PeriodicField) -> float:
    _check_same_grid(V, W)
    return V.h * float(np.dot(V.values, W.values))


def seminorm_1h(V: PeriodicField) -> float:
    # |V|_{1,h}^2 = h * sum ((V_i - V_{i-1})/h)^2
    return _norm_values((V.values - _pad(V.values)[:-2]) / V.h, V.h)


def seminorm_2h(V: PeriodicField) -> float:
    # |V|_{2,h}^2 = h * sum (D_h V)_i^2
    return _norm_values(_lap_values(V.values, V.h), V.h)


def mode_amplitudes(V: PeriodicField) -> np.ndarray:
    """|u_m| for m = 0..J/2 with u_m = (1/J) sum_i V_i exp(-i m sigma_i)."""
    return np.abs(np.fft.rfft(V.values)) / V.J


def pw_linear_square_integral(values: np.ndarray, h: float) -> float:
    """Exact integral over one period of the square of the piecewise linear
    interpolant through the samples: sum_i (h/3)(a^2 + a b + b^2) with
    a = V_i, b = V_{i+1}."""
    a = np.asarray(values, dtype=float)
    # sum_i (a_i^2 + a_{i+1}^2) = 2 sum_i a_i^2 on the periodic grid
    cross = np.dot(a[:-1], a[1:]) + a[-1] * a[0]
    return (h / 3.0) * float(2.0 * np.dot(a, a) + cross)


def sample_cosine_sum(grid: GridSpec, pairs) -> PeriodicField:
    """Samples u0(sigma) = sum_i p_i cos(m_i sigma) at the grid nodes."""
    s = grid.sigma
    u = np.zeros(grid.J)
    for p, m in pairs:
        u += p * np.cos(m * s)
    return PeriodicField(u, grid.h)


def sample_cosine_sum_dsigma(grid: GridSpec, pairs) -> PeriodicField:
    """Samples the analytic derivative of the cosine sum, -sum p_i m_i sin(m_i sigma)."""
    s = grid.sigma
    v = np.zeros(grid.J)
    for p, m in pairs:
        v -= p * m * np.sin(m * s)
    return PeriodicField(v, grid.h)


def centered_difference(U: PeriodicField) -> PeriodicField:
    """(U_{i+1} - U_{i-1}) / (2h), the second order alternative for v0."""
    p = _pad(U.values)
    return PeriodicField((p[2:] - p[:-2]) / (2.0 * U.h), U.h)
