"""The expanding radius law dR/dt = v_c + (alpha - 1)/R.

With a = alpha - 1, d = R - R0, c = v_c R0 + a and x = v_c d/c, direct
integration gives the time at which the radius is R as two nonnegative terms,

    t(R) = d R0/c + a (d/c)^2 h(x),    h(x) = (x - log1p x)/x^2,

so nothing cancels, and t(R) -> (R^2 - R0^2)/(2a) as v_c -> 0.  dt/dR =
R/(v_c R + a) is positive and increasing, so t(R) is convex and Newton's
method from a start right of the root decreases monotonically to it.  The
rate decreases along the solution, so R(t) <= R0 + rate(R0) t: that start.
"""

from __future__ import annotations

import numpy as np

from .params import ModelParams, SolverError, positive_radius

# 1/(2k + 3), k = 15..0: h's series in u = x/(2 + x) (below) for np.polyval
_SERIES = 1.0 / np.arange(33.0, 2.0, -2.0)


def radius_rate(R, params: ModelParams):
    """dR/dt at radius R, a float or an array of radii."""
    positive_radius(R)
    return params.v_c + (params.alpha - 1.0) / R


def _times(ts) -> np.ndarray:
    t = np.array(ts, dtype=float)
    if t.ndim != 1 or not (np.isfinite(t) & (t >= 0)).all():
        raise ValueError(f"times must be a sequence of finite values >= 0, got {ts}")
    return t


def _h(x: np.ndarray) -> np.ndarray:
    """(x - log1p x)/x^2.  Below x = 1, where that subtraction cancels, it is
    (1 - u(1 - u) sum_k u^2k/(2k + 3))/(2 + x) with u = x/(2 + x), from
    log1p x = 2 atanh u; 16 terms in u^2 <= 1/9 reach double precision."""
    h, small = np.empty_like(x), x < 1.0
    xs, xb = x[small], x[~small]
    u = xs / (2.0 + xs)
    h[small] = (1.0 - u * (1.0 - u) * np.polyval(_SERIES, u * u)) / (2.0 + xs)
    h[~small] = (xb - np.log1p(xb)) / xb / xb
    return h


class RadiusLaw:
    """Solves the implicit radius relation; strictly monotone in t."""

    def __init__(self, params: ModelParams):
        self.params = params

    def rate(self, R):
        return radius_rate(R, self.params)

    def _implicit(self, R: np.ndarray, t: np.ndarray) -> np.ndarray:
        """t(R) - t for arrays of radii and times."""
        p = self.params
        a, d = p.alpha - 1.0, R - p.R0
        c = p.v_c * p.R0 + a
        return d * p.R0 / c + a * (d / c) ** 2 * _h(p.v_c * d / c) - t

    def radius_at(self, t: float) -> float:
        return float(self.radii([t])[0])

    def radii(self, ts) -> np.ndarray:
        """R(t) for every t in ts, each entry the value radius_at gives: Newton from
        R0 + rate(R0) t, one update a pass, until an entry's update no longer decreases it."""
        t = _times(ts)
        p = self.params
        try:  # an overflow or a NaN fails the solve, not a warning
            with np.errstate(over="raise", invalid="raise"):
                R = p.R0 + self.rate(p.R0) * t
                out, idx = np.empty_like(R), np.arange(R.size)
                while idx.size:
                    R_new = R - self._implicit(R, t) * (p.v_c * R + p.alpha - 1.0) / R
                    done = ~(R_new < R)
                    out[idx[done]] = R[done]
                    idx, t, R = idx[~done], t[~done], R_new[~done]
        except FloatingPointError as e:
            raise SolverError(f"radius law failed with v_c = {p.v_c}, alpha = {p.alpha}: {e}") from None
        return out
