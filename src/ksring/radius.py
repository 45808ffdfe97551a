"""The expanding radius law dR/dt = v_c + (alpha - 1)/R.

Direct integration gives the implicit solution

    (1/v_c) * { R - R0 - ((alpha-1)/v_c) * log[(v_c R + alpha - 1)/(v_c R0 + alpha - 1)] } = t,

whose left side is strictly increasing in R, so R(t) is recovered by
bracketed root finding.  The rate v_c + (alpha-1)/R is positive and
decreasing along the solution, hence R(t) is strictly increasing and
R(t) <= R0 + rate(R0) * t, which provides the bracket.
"""

from __future__ import annotations

import numpy as np

from .params import ModelParams, SolverError


def radius_rate(R, params: ModelParams):
    """dR/dt at radius R, a float or an array of radii."""
    if not np.all(R > 0):
        raise ValueError(f"R must be > 0, got {R}")
    return params.v_c + (params.alpha - 1.0) / R


def _times(ts) -> np.ndarray:
    t = np.array(ts, dtype=float)
    if t.ndim != 1 or not (np.isfinite(t) & (t >= 0)).all():
        raise ValueError(f"times must be a sequence of finite values >= 0, got {ts}")
    return t


class RadiusLaw:
    """Solves the implicit radius relation; strictly monotone in t."""

    def __init__(self, params: ModelParams):
        self.params = params

    def rate(self, R):
        return radius_rate(R, self.params)

    def _implicit(self, R: float, t: float) -> float:
        # log[(v_c R + a)/(v_c R0 + a)] = log1p(v_c (R - R0)/(v_c R0 + a)).
        # The two terms of the bracket nearly cancel when v_c is small, so the
        # residual carries rounding noise of about eps (R - R0)/v_c; once that
        # passes the 1e-12 tolerance, radii() raises SolverError.
        p = self.params
        a = p.alpha - 1.0
        y = p.v_c * (R - p.R0) / (p.v_c * p.R0 + a)
        return (R - p.R0 - (a / p.v_c) * np.log1p(y)) / p.v_c - t

    def radius_at(self, t: float) -> float:
        return float(self.radii([t])[0])

    def radii(self, ts) -> np.ndarray:
        """R(t) for every t in ts: safeguarded Newton on the implicit relation,
        all times at once; each entry is the value radius_at gives."""
        t = _times(ts)
        p = self.params
        out = np.full(t.shape, p.R0)
        idx = np.flatnonzero(t > 0)
        t = t[idx]
        lo = np.full(t.shape, p.R0)
        hi = p.R0 + self.rate(p.R0) * t + 1.0
        tol = 1e-12 * np.maximum(1.0, t)
        x = 0.5 * (lo + hi)
        for _ in range(200):
            f = self._implicit(x, t)
            done = np.abs(f) <= tol
            out[idx[done]] = x[done]
            todo = ~done
            if not todo.any():
                return out
            idx, t, tol, x, f, lo, hi = (a[todo] for a in (idx, t, tol, x, f, lo, hi))
            hi = np.where(f > 0, x, hi)
            lo = np.where(f > 0, lo, x)
            # f' = x / (v_c x + alpha - 1) > 0 on the bracket
            x_new = x - f * (p.v_c * x + p.alpha - 1.0) / x
            x = np.where((lo < x_new) & (x_new < hi), x_new, 0.5 * (lo + hi))
        raise SolverError(f"radius law did not converge at t = {float(t[0])} with v_c = {p.v_c}")
