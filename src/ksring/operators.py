"""The quadratic stencils and the Fourier symbol of the linear part.

Quadratic form      phi(V,W)_i = (V_{i-1} + V_i + V_{i+1}) (W_{i+1} - W_{i-1})
Its linearization   psi(V,W)_i = -(2V_{i-1} + V_i) W_{i-1}
                                 + (V_{i+1} - V_{i-1}) W_i
                                 + (2V_{i+1} + V_i) W_{i+1}

phi approximates 6h * v * v_sigma; psi satisfies the exact identity
phi(V,V) - phi(W,W) = psi(W, V-W) + phi(V-W, V-W).

The linear part L V = c4 D_h^2 V + c2 D_h V + c0 V, D_h the second
difference, has c4 = delta/R^4, c2 = (alpha - 1 + delta/R^2)/R^2 and
c0 = (alpha - 1)/R^2 at radius R.  It is circulant, so the solver applies
it through its symbol mu_m = c4*s_m^2 - c2*s_m + c0 on Fourier mode m,
where s_m = (4/h^2) sin^2(m h / 2) is the (negated) symbol of D_h.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .params import ModelParams, positive_radius


# The quadratic stencils take each operand padded, as _pad or _wrap leaves
# it (the operand itself is p[1:-1], p[:-2] and p[2:] its shifts), and write
# into out (tmp: scratch of the operand's size).


def _phi_values(pv: np.ndarray, pw: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    out = np.add(pv[:-2], pv[1:-1], out=out)
    out += pv[2:]
    out *= np.subtract(pw[2:], pw[:-2], out=tmp)
    return out


def psi_coefficients(pv: np.ndarray, out) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stencil weights of W in psi(V, W)_i, for W_{i-1}, W_i and W_{i+1},
    written into out, three arrays of V's size."""
    vm, v, vp = pv[:-2], pv[1:-1], pv[2:]
    cm, c0, cp = out
    np.multiply(2.0, vm, out=cm)
    cm += v
    np.negative(cm, out=cm)
    np.multiply(2.0, vp, out=cp)
    cp += v
    np.subtract(vp, vm, out=c0)
    return cm, c0, cp


def _psi_apply(coeffs, pw: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    cm, c0, cp = coeffs
    out = np.multiply(cm, pw[:-2], out=out)
    out += np.multiply(c0, pw[1:-1], out=tmp)
    out += np.multiply(cp, pw[2:], out=tmp)
    return out


class LinearOperatorCoefficients(NamedTuple):
    """Coefficients of the linear operator at one radius, or per radius of an array."""

    c4: float
    c2: float
    c0: float

    @classmethod
    def at_radius(cls, params: ModelParams, R) -> "LinearOperatorCoefficients":
        positive_radius(R)
        R2 = R * R
        return cls(
            c4=params.delta / (R2 * R2),
            c2=(params.alpha - 1.0 + params.delta / R2) / R2,
            c0=(params.alpha - 1.0) / R2,
        )


def second_difference_symbol(m, h: float):
    """s_m = (4/h^2) sin^2(m h / 2); D_h acting on mode m multiplies by -s_m."""
    m = np.asarray(m, dtype=float)
    return (4.0 / h**2) * np.sin(m * h / 2.0) ** 2


def _symbol(coeffs: LinearOperatorCoefficients, s, s2):
    """mu = c4 s^2 - c2 s + c0 from precomputed s_m and s_m^2."""
    return coeffs.c4 * s2 - coeffs.c2 * s + coeffs.c0
