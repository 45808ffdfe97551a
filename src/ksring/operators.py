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

from .field import _pad
from .params import ModelParams, positive_radius


# The quadratic stencils write into out when it is given (tmp: scratch of v's
# size) and take pv, v padded by _pad, when the caller has it.


def _phi_values(v: np.ndarray, w: np.ndarray, out=None, tmp=None, pv=None) -> np.ndarray:
    pv = _pad(v) if pv is None else pv
    pw = pv if w is v else _pad(w)
    out = np.add(pv[:-2], v, out=out)
    out += pv[2:]
    out *= np.subtract(pw[2:], pw[:-2], out=tmp)
    return out


def psi_coefficients(v: np.ndarray, out=None, pv=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stencil weights of W in psi(V, W)_i, for W_{i-1}, W_i and W_{i+1}."""
    pv = _pad(v) if pv is None else pv
    vm, vp = pv[:-2], pv[2:]
    cm, c0, cp = (None, None, None) if out is None else out
    cm = np.multiply(2.0, vm, out=cm)
    cm += v
    np.negative(cm, out=cm)
    cp = np.multiply(2.0, vp, out=cp)
    cp += v
    return cm, np.subtract(vp, vm, out=c0), cp


def _psi_apply(coeffs, w: np.ndarray, out=None, tmp=None, pw=None) -> np.ndarray:
    pw = _pad(w) if pw is None else pw
    cm, c0, cp = coeffs
    out = np.multiply(cm, pw[:-2], out=out)
    out += np.multiply(c0, w, out=tmp)
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
    s = (4.0 / h**2) * np.sin(m * h / 2.0) ** 2
    return s if s.ndim else float(s)


def _symbol(coeffs: LinearOperatorCoefficients, s, s2):
    """mu = c4 s^2 - c2 s + c0 from precomputed s_m and s_m^2."""
    return coeffs.c4 * s2 - coeffs.c2 * s + coeffs.c0
