"""The expanding radius law dR/dt = v_c + (alpha - 1)/R.

Direct integration gives the implicit solution

    (1/v_c) * { R - R0 - ((alpha-1)/v_c) * log[(v_c R + alpha - 1)/(v_c R0 + alpha - 1)] } = t,

whose left side is strictly increasing in R, so R(t) is recovered by
bracketed root finding.  The rate v_c + (alpha-1)/R is positive and
decreasing along the solution, hence R(t) is strictly increasing and
R(t) <= R0 + rate(R0) * t, which provides the bracket.
"""

from __future__ import annotations

import math

from .params import ModelParams, TimeGrid


def radius_rate(R: float, params: ModelParams) -> float:
    """dR/dt at radius R."""
    if not (R > 0):
        raise ValueError(f"R must be > 0, got {R}")
    return params.v_c + (params.alpha - 1.0) / R


class RadiusLaw:
    """Solves the implicit radius relation; strictly monotone in t."""

    def __init__(self, params: ModelParams):
        self.params = params

    def rate(self, R: float) -> float:
        return radius_rate(R, self.params)

    def _implicit(self, R: float, t: float) -> float:
        # log[(v_c R + a)/(v_c R0 + a)] = log1p(v_c (R - R0)/(v_c R0 + a));
        # the log1p form keeps the residual noise below the 1e-12 tolerance
        # even when a/v_c^2 is large.
        p = self.params
        a = p.alpha - 1.0
        y = p.v_c * (R - p.R0) / (p.v_c * p.R0 + a)
        return (R - p.R0 - (a / p.v_c) * math.log1p(y)) / p.v_c - t

    def radius_at(self, t: float) -> float:
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t}")
        p = self.params
        if t == 0:
            return p.R0
        lo = p.R0
        hi = p.R0 + self.rate(p.R0) * t + 1.0
        tol = 1e-12 * max(1.0, t)
        x = 0.5 * (lo + hi)
        for _ in range(200):
            f = self._implicit(x, t)
            if abs(f) <= tol:
                return x
            if f > 0:
                hi = x
            else:
                lo = x
            # f' = x / (v_c x + alpha - 1) > 0 on the bracket
            step = f * (p.v_c * x + p.alpha - 1.0) / x
            x_new = x - step
            if not (lo < x_new < hi):
                x_new = 0.5 * (lo + hi)
            x = x_new
        raise RuntimeError(f"radius solve did not converge at t={t}")

    def rate_at(self, t: float) -> float:
        return self.rate(self.radius_at(t))

    def half_step(self, n: int, grid: TimeGrid) -> float:
        """R at the half time t^n + k/2, for 0 <= n <= N-1."""
        if not (0 <= n <= grid.N - 1):
            raise ValueError(f"step index {n} outside 0..{grid.N - 1}")
        return self.radius_at((n + 0.5) * grid.k)


class FrozenRadiusLaw(RadiusLaw):
    """Radius pinned at R0; a diagnostic device for fixed-radius comparisons."""

    def radius_at(self, t: float) -> float:
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t}")
        return self.params.R0
