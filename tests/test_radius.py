import math
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest

from ksring.field import GridSpec
from ksring.params import ModelParams, TimeGrid
from ksring.radius import RadiusLaw, radius_rate
from ksring.solver import SchemeContext, SolverError
from oracles import FrozenRadiusLaw, rate_at

SLOW = ModelParams(delta=4.0, alpha=1.5, v_c=0.001, R0=6.0)
FAST = ModelParams(delta=4.0, alpha=1.28, v_c=0.1, R0=60.0)
UNIT = replace(SLOW, v_c=1.0)
CREEP = replace(SLOW, v_c=1e-6)
TIMES = [0.01, 0.5, 5.0, 50.0, 500.0]


def rk4_radius(params, t, dt):
    # independent reference: classical RK4 on dR/dt = v_c + (alpha - 1)/R
    steps = round(t / dt)
    assert abs(steps * dt - t) < 1e-12 * max(1.0, t)

    def f(R):
        return params.v_c + (params.alpha - 1.0) / R

    R = params.R0
    for _ in range(steps):
        k1 = f(R)
        k2 = f(R + 0.5 * dt * k1)
        k3 = f(R + 0.5 * dt * k2)
        k4 = f(R + dt * k3)
        R += dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
    return R


def test_radius_at_zero():
    assert RadiusLaw(SLOW).radius_at(0.0) == SLOW.R0
    assert RadiusLaw(FAST).radius_at(0.0) == FAST.R0


@pytest.mark.parametrize("params", [SLOW, FAST])
@pytest.mark.parametrize("t", [1.0, 10.0])
def test_radius_matches_rk4(params, t):
    law = RadiusLaw(params)
    assert law.radius_at(t) == pytest.approx(rk4_radius(params, t, 1e-4), abs=1e-8)


@pytest.mark.parametrize("params", [SLOW, FAST])
def test_radius_matches_rk4_long(params):
    law = RadiusLaw(params)
    assert law.radius_at(100.0) == pytest.approx(
        rk4_radius(params, 100.0, 1e-3), abs=1e-8
    )


@pytest.mark.parametrize("params", [SLOW, FAST])
@pytest.mark.parametrize("t", [0.5, 5.0, 50.0])
def test_implicit_residual_small(params, t):
    law = RadiusLaw(params)
    R = law.radius_at(t)
    a = params.alpha - 1.0
    vc = params.v_c
    # log1p form: the naive log of the ratio carries a/v_c^2 noise amplification
    F = (R - params.R0 - (a / vc) * math.log1p(vc * (R - params.R0) / (vc * params.R0 + a))) / vc
    assert abs(F - t) <= 1e-12 * max(1.0, t)


@pytest.mark.parametrize("params", [SLOW, FAST])
def test_rate_matches_central_difference(params):
    # dt balances O(dt^2) truncation against the radii's rounding noise / dt
    law = RadiusLaw(params)
    t, dt = 3.0, 1e-4
    numeric = (law.radius_at(t + dt) - law.radius_at(t - dt)) / (2 * dt)
    assert rate_at(law, t) == pytest.approx(numeric, rel=1e-6)


def test_rate_formula():
    assert radius_rate(6.0, SLOW) == pytest.approx(0.001 + 0.5 / 6.0, rel=1e-15)
    law = RadiusLaw(SLOW)
    assert law.rate(6.0) == radius_rate(6.0, SLOW)
    assert rate_at(law, 0.0) == pytest.approx(radius_rate(6.0, SLOW), rel=1e-14)


def test_radius_monotone():
    law = RadiusLaw(SLOW)
    ts = [0.0, 0.1, 1.0, 5.0, 20.0, 100.0, 500.0]
    rs = [law.radius_at(t) for t in ts]
    assert all(b > a for a, b in zip(rs, rs[1:]))


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        RadiusLaw(SLOW).radius_at(-1.0)


@pytest.mark.parametrize("law_type", [RadiusLaw, FrozenRadiusLaw])
@pytest.mark.parametrize(
    "call",
    [
        lambda law: law.radius_at(math.nan),
        lambda law: law.radii([1.0, math.nan, 2.0]),
        lambda law: law.radius_at(math.inf),
    ],
    ids=["nan", "nan_among_finite", "inf"],
)
def test_non_finite_time_rejected(law_type, call):
    # no silent R0 for NaN, and no 200 Newton iterations towards R(inf)
    with pytest.raises(ValueError, match="finite"):
        call(law_type(SLOW))


def test_half_step_between_nodes():
    law = RadiusLaw(SLOW)
    tg = TimeGrid(k=0.25, N=40)
    ctx = SchemeContext(SLOW, tg, GridSpec(16), law=law)
    for n in [0, 7, 39]:
        mid = ctx.R_half[n]
        assert law.radius_at(n * tg.k) < mid < law.radius_at((n + 1) * tg.k)
        assert mid == law.radius_at((n + 0.5) * tg.k)


def test_half_step_taylor():
    # R(k/2) = R0 + (k/2) rate(R0) + O(k^2)
    law = RadiusLaw(SLOW)
    k = 1e-4
    mid = law.radius_at(0.5 * k)
    assert mid == pytest.approx(SLOW.R0 + 0.5 * k * law.rate(SLOW.R0), abs=1e-9)


def test_frozen_law_keeps_radius():
    law = FrozenRadiusLaw(SLOW)
    assert law.radius_at(50.0) == SLOW.R0
    assert SchemeContext(SLOW, TimeGrid(k=0.5, N=10), GridSpec(16), law=law).R_half[3] == SLOW.R0
    # the rate stays the formula so reconstruction denominators remain finite
    assert rate_at(law, 50.0) == radius_rate(SLOW.R0, SLOW)


@pytest.mark.parametrize("params", [SLOW, FAST])
def test_radii_equal_radius_at_bitwise(params):
    law = RadiusLaw(params)
    k = 0.01
    ts = np.concatenate(([0.0], np.arange(1, 1001) * k, (np.arange(1000) + 0.5) * k, [37.0, 500.0]))
    expected = np.array([law.radius_at(t) for t in ts])
    np.testing.assert_array_equal(law.radii(ts), expected)


@pytest.mark.parametrize("params", [SLOW, FAST])
def test_radii_match_rk4(params):
    ts = [0.5, 5.0, 50.0]
    expected = [rk4_radius(params, t, 1e-3) for t in ts]
    np.testing.assert_allclose(RadiusLaw(params).radii(ts), expected, rtol=0, atol=1e-8)


def test_radii_rejects_negative_time():
    with pytest.raises(ValueError):
        RadiusLaw(SLOW).radii([0.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        FrozenRadiusLaw(SLOW).radii([-1.0])


def test_frozen_law_radii():
    np.testing.assert_array_equal(FrozenRadiusLaw(SLOW).radii([0.0, 0.5, 50.0]), np.full(3, SLOW.R0))


def test_overflowing_radius_law_is_a_solver_error():
    # v_c = 1e300 overflows the Newton start; the error names the law, v_c
    # and alpha, at no step
    with pytest.raises(SolverError, match=r"^radius law failed with v_c = 1e\+300, alpha = 1\.5: overflow") as err:
        RadiusLaw(replace(SLOW, v_c=1e300)).radius_at(1.0)
    assert err.value.step is None


@pytest.mark.parametrize("R", [0.0, -1.0, math.nan, np.array([1.0, 0.0]), np.array([1.0, -1.0])])
def test_radius_rate_rejects_nonpositive_radii(R):
    with pytest.raises(ValueError, match="R must be > 0"):
        radius_rate(R, SLOW)


def decimal_radius(params, t):
    """R(t) to 60 digits: Newton in decimal arithmetic on the integrated law as
    first written, t = (R - R0)/v_c - (a/v_c^2) ln((v_c R + a)/(v_c R0 + a)).
    Its two terms are about (R - R0)/(v_c t) times their difference, a loss of
    under 5 digits at these models and times, so 100 working digits keep 60."""
    with localcontext() as ctx:
        ctx.prec = 100
        v, a, R0, t = Decimal(params.v_c), Decimal(params.alpha) - 1, Decimal(params.R0), Decimal(t)
        R = R0 + (v + a / R0) * t
        while True:
            step = ((R - R0) / v - a / (v * v) * ((v * R + a) / (v * R0 + a)).ln() - t) * (v * R + a) / R
            R -= step
            if abs(step) < Decimal("1e-60") * R:
                return R


@pytest.mark.parametrize("params", [SLOW, FAST, UNIT, CREEP], ids=["slow", "fast", "v_c_1", "v_c_1e-6"])
def test_radii_are_within_two_ulps_of_the_exact_root(params):
    # a solve of the subtracted form to a residual of 1e-12 max(1, t) stops up
    # to 7 ulps off on SLOW and 22 on FAST at these times, and fails at v_c = 1e-6
    for R, t in zip(RadiusLaw(params).radii(TIMES), TIMES):
        exact = decimal_radius(params, t)
        assert abs(Decimal(float(R)) - exact) <= 2 * Decimal(math.ulp(float(exact))), (t, float(R), exact)


def test_small_v_c_approaches_the_v_c_zero_limit_at_first_order():
    # t(R) -> (R^2 - R0^2)/(2a) as v_c -> 0; the faster circle is ahead by O(v_c)
    T = 100.0
    limit = math.sqrt(SLOW.R0**2 + 2.0 * (SLOW.alpha - 1.0) * T)
    gaps = [RadiusLaw(replace(SLOW, v_c=v_c)).radius_at(T) - limit for v_c in (1e-6, 1e-9, 1e-12)]
    assert all(gap > 0 for gap in gaps)
    for gap, smaller in zip(gaps, gaps[1:]):
        assert gap / smaller == pytest.approx(1000.0, rel=0.01)


@pytest.mark.parametrize("params", [SLOW, FAST, UNIT], ids=["slow", "fast", "v_c_1"])
def test_radii_take_at_most_ten_newton_updates(params, monkeypatch):
    # one _implicit evaluation is one Newton update of every unfinished entry
    calls = []
    implicit = RadiusLaw._implicit

    def counted(self, R, t):
        calls.append(len(R))
        return implicit(self, R, t)

    monkeypatch.setattr(RadiusLaw, "_implicit", counted)
    law = RadiusLaw(params)
    for ts in (TIMES, np.arange(20001) * 0.005):
        calls.clear()
        law.radii(ts)
        assert 1 <= len(calls) <= 10, calls
        assert calls == sorted(calls, reverse=True)
