import math

import numpy as np
import pytest

from ksring.field import GridSpec, PeriodicField, mode_amplitudes, sample_cosine_sum_dsigma
from ksring.field import pw_linear_square_integral
from ksring.params import ModelParams
from ksring.stability import (
    SpectralReport,
    _lambda_formula,
    critical_radius,
    measured_dominant_mode,
    neutral_delta,
    selection,
    spectral_report,
)
from oracles import galerkin_rhs, integrate_modes, lambda_m, modes_from_cosines

PARAMS = ModelParams(delta=4.0, alpha=1.5, v_c=0.001, R0=6.0)


def test_lambda_hand_value():
    # m=2, R=6: (4*0.5*36 - 4*16 + 4*4 - 0.5*36) / 6^4 = 6/1296
    assert lambda_m(2, 6.0, PARAMS) == pytest.approx(6.0 / 1296.0, rel=1e-14)


def test_lambda_one_is_exactly_zero():
    for R in (3.0, 6.0, 17.31, 120.0):
        assert lambda_m(1, R, PARAMS) == 0.0
        assert _lambda_formula(1.0, R, PARAMS) == 0.0


def test_lambda_rejects_bad_inputs():
    with pytest.raises(ValueError):
        lambda_m(0, 6.0, PARAMS)
    with pytest.raises(ValueError):
        lambda_m(-2, 6.0, PARAMS)
    with pytest.raises(ValueError):
        lambda_m(2, 0.0, PARAMS)


def test_lambda_even_in_m():
    for m in (2.0, 3.0, 7.0):
        assert _lambda_formula(-m, 9.0, PARAMS) == _lambda_formula(m, 9.0, PARAMS)


def test_neutral_hand_value():
    p = ModelParams(delta=1.0, alpha=1.2, v_c=0.001, R0=6.0)
    assert neutral_delta(2, 10.0, p) == pytest.approx(5.0, rel=1e-14)


def test_neutral_scaling_invariance():
    for m, R in [(2, 7.0), (3, 11.0), (5, 4.0)]:
        assert neutral_delta(2 * m, 2 * R, PARAMS) == pytest.approx(
            neutral_delta(m, R, PARAMS), rel=1e-14
        )


def test_lambda_vanishes_on_neutral_curve():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = int(rng.integers(2, 12))
        R = float(rng.uniform(1.0, 40.0))
        alpha = float(rng.uniform(1.05, 2.5))
        delta_star = (alpha - 1.0) * R * R / (m * m)
        p = ModelParams(delta=delta_star, alpha=alpha, v_c=0.001, R0=6.0)
        assert abs(lambda_m(m, R, p)) <= 1e-13


def test_critical_radius_values():
    assert critical_radius(PARAMS) == pytest.approx(2.0 * math.sqrt(8.0), rel=1e-15)
    p = ModelParams(delta=0.3, alpha=1.3, v_c=0.001, R0=6.0)
    assert critical_radius(p) == pytest.approx(2.0, rel=1e-14)


def test_mode_two_flips_sign_at_critical_radius():
    R_star = critical_radius(PARAMS)
    assert lambda_m(2, R_star - 1e-3, PARAMS) < 0
    assert lambda_m(2, R_star + 1e-3, PARAMS) > 0


def test_spectral_report_unstable_sets():
    assert spectral_report(4.0, PARAMS, 8).unstable_modes == []
    assert spectral_report(6.0, PARAMS, 8).unstable_modes == [2]
    rep = spectral_report(12.0, PARAMS, 8)
    assert rep.unstable_modes == [2, 3, 4]
    assert rep.predicted_dominant == 3


def test_predicted_dominant_tie_breaks_low():
    rep = SpectralReport(R=1.0, m_max=3, lam=np.array([0.0, 0.5, 0.5]))
    assert rep.predicted_dominant == 2


def test_measured_dominant_mode():
    g = GridSpec(64)
    probe = PeriodicField(
        0.7 * np.cos(4 * g.sigma) + 0.2 * np.cos(2 * g.sigma) + 3.0, g.h
    )
    assert measured_dominant_mode(probe) == 4


def test_selection_measures_the_probe_mode():
    g = GridSpec(64)
    probe = PeriodicField(np.cos(2 * g.sigma), g.h)
    verdict = selection(PARAMS, 6.0, probe)
    assert verdict["measured_dominant"] == 2
    assert verdict["R_star"] == critical_radius(PARAMS)


def test_galerkin_single_mode_rhs():
    # u = eps cos(2 sigma): u_2 advances by lambda_2 u_2, pumps m = 0 and 4
    eps = 1e-3
    R = 6.0
    M = 8
    modes = modes_from_cosines([(eps, 2)], M)
    rhs = galerkin_rhs(modes, R, PARAMS)
    lam2 = lambda_m(2, R, PARAMS)
    assert rhs[M + 2] == pytest.approx(lam2 * eps / 2.0, rel=1e-13)
    # w_2 w_2 = (2 * eps/2)^2 feeds mode 4
    assert rhs[M + 4] == pytest.approx(-(PARAMS.v_c / (2 * R * R)) * eps**2, rel=1e-12)
    # w_2 w_-2 + w_-2 w_2 = -2 eps^2 feeds the mean
    assert rhs[M] == pytest.approx((PARAMS.v_c / (R * R)) * eps**2, rel=1e-12)
    # modes without quadratic sources stay put
    assert rhs[M + 3] == 0.0


def test_galerkin_matches_double_loop_convolution():
    rng = np.random.default_rng(1)
    M = 6
    modes = np.zeros(2 * M + 1, dtype=complex)
    for m in range(1, M + 1):
        z = rng.standard_normal() + 1j * rng.standard_normal()
        modes[M + m] = z
        modes[M - m] = np.conj(z)
    modes[M] = rng.standard_normal()
    R = 9.0
    got = galerkin_rhs(modes, R, PARAMS)
    for m in range(-M, M + 1):
        conv = 0.0 + 0.0j
        for m1 in range(-M, M + 1):
            m2 = m - m1
            if abs(m2) > M or m1 == 0 or m2 == 0:
                continue
            conv += (m1 * modes[M + m1]) * (m2 * modes[M + m2])
        expected = _lambda_formula(m, R, PARAMS) * modes[M + m] - (
            PARAMS.v_c / (2 * R * R)
        ) * conv
        assert got[M + m] == pytest.approx(expected, rel=1e-13, abs=1e-16)


def test_galerkin_rejects_broken_reality():
    modes = np.zeros(5, dtype=complex)
    modes[3] = 1.0  # u_1 without the conjugate partner
    with pytest.raises(ValueError):
        galerkin_rhs(modes, 6.0, PARAMS)
    with pytest.raises(ValueError):
        galerkin_rhs(np.zeros(4, dtype=complex), 6.0, PARAMS)


def test_modes_from_cosines_layout():
    M = 5
    modes = modes_from_cosines([(0.4, 2), (0.2, 3)], M)
    assert modes[M + 2] == 0.2
    assert modes[M - 2] == 0.2
    assert modes[M + 3] == 0.1
    assert modes[M] == 0.0
    with pytest.raises(ValueError):
        modes_from_cosines([(0.1, 6)], M)


def test_integrate_single_mode_grows_exponentially():
    eps = 1e-6
    R = 6.0
    M = 8
    modes = modes_from_cosines([(eps, 2)], M)
    times, path = integrate_modes(modes, R, PARAMS, T=1.0, dt=1e-3)
    assert times[0] == 0.0 and times[-1] == pytest.approx(1.0)
    lam2 = lambda_m(2, R, PARAMS)
    ratio = abs(path[-1][M + 2]) / (eps / 2.0)
    assert ratio == pytest.approx(math.exp(lam2), rel=1e-6)


def test_integrate_preserves_reality_and_validates_dt():
    modes = modes_from_cosines([(0.05, 2), (0.02, 3)], 6)
    _, path = integrate_modes(modes, 9.0, PARAMS, T=2.0, dt=1e-2)
    final = path[-1]
    assert np.max(np.abs(final[::-1] - np.conj(final))) <= 1e-12
    with pytest.raises(ValueError):
        integrate_modes(modes, 9.0, PARAMS, T=1.0, dt=0.3)


def test_integrate_modes_is_rk4_on_galerkin_rhs_bit_for_bit():
    # the integrator checks reality and evaluates lambda once; its path is the
    # one that calls the checked right-hand side at every stage
    M, R, dt, steps, every = 16, 6.0, 1e-3, 200, 50
    u = modes_from_cosines([(0.1, 2), (0.1, 3), (0.1, 4), (0.1, 5)], M)
    times, path = integrate_modes(u, R, PARAMS, T=steps * dt, dt=dt, record_every=every)
    expected = [u]
    for s in range(steps):
        k1 = galerkin_rhs(u, R, PARAMS)
        k2 = galerkin_rhs(u + 0.5 * dt * k1, R, PARAMS)
        k3 = galerkin_rhs(u + 0.5 * dt * k2, R, PARAMS)
        k4 = galerkin_rhs(u + dt * k3, R, PARAMS)
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (s + 1) % every == 0:
            expected.append(u)
    assert times.tolist() == [j * every * dt for j in range(steps // every + 1)]
    np.testing.assert_array_equal(path.view(np.uint64), np.array(expected).view(np.uint64))


def test_mode_energy_matches_gradient_integral():
    # int v^2 with v = u_sigma equals 2 pi sum m^2 |u_m|^2 for the cosine data
    pairs = [(0.12, 2), (0.07, 5)]
    M = 8
    modes = modes_from_cosines(pairs, M)
    ms = np.arange(-M, M + 1)
    spectral = 2.0 * math.pi * float(np.sum(ms**2 * np.abs(modes) ** 2))
    g = GridSpec(512)
    v = sample_cosine_sum_dsigma(g, pairs)
    assert pw_linear_square_integral(v.values, g.h) == pytest.approx(spectral, rel=1e-3)
    exact = math.pi * sum(p * p * m * m for p, m in pairs)
    assert spectral == pytest.approx(exact, rel=1e-14)


CRITERION_3 = ModelParams(delta=4.0, alpha=1.28, v_c=0.1, R0=60.0)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("params, T", [(PARAMS, 100.0), (CRITERION_3, 1.0)])
def test_spectral_report_rates_are_lambda_m_bit_for_bit(params, T):
    # the report tabulates the modes in one array call; each entry has the
    # bits of the scalar lambda_m, the sign of lambda_1 = +0.0 included
    from ksring.radius import RadiusLaw

    R_T = RadiusLaw(params).radius_at(T)
    neutral = [m * math.sqrt(params.delta / (params.alpha - 1.0)) for m in range(2, 33)]
    for R in [params.R0, R_T, *neutral, np.float64(R_T)]:
        rep = spectral_report(R, params, 32)
        expected = [lambda_m(m, R, params) for m in range(1, 33)]
        np.testing.assert_array_equal(_bits(rep.lam), _bits(expected))
        assert _bits(rep.lam)[0] == 0  # +0.0


def _first_top_mode(lam):
    # the rule predicted_dominant had as a loop: the first mode within 1e-12 of the top
    top = float(np.max(lam))
    for m in range(1, len(lam) + 1):
        if lam[m - 1] >= top - 1e-12 * max(1.0, abs(top)):
            return m
    return 1


def test_predicted_dominant_matches_the_first_mode_rule():
    a = PARAMS.alpha - 1.0
    # lambda_m = lambda_{m+1} where R^2 = delta (m^2 + (m+1)^2 - 1) / (alpha - 1)
    ties = [math.sqrt(PARAMS.delta * (m * m + (m + 1) ** 2 - 1) / a) for m in range(2, 12)]
    for R in [*np.linspace(0.5, 60.0, 239), *ties]:
        rep = spectral_report(float(R), PARAMS, 32)
        assert rep.predicted_dominant == _first_top_mode(rep.lam)
    exact = [[0.0, 0.5, 0.5], [-1.0, -1.0, -1.0], [0.0, 0.0, 0.0], [2.0, 2.0 - 1e-13, 3.0, 3.0], [1.0, math.nan]]
    for lam in exact:
        rep = SpectralReport(R=1.0, m_max=len(lam), lam=np.array(lam))
        assert rep.predicted_dominant == _first_top_mode(rep.lam)


def test_neutral_delta_rejects_bad_inputs():
    for m in (1, 0, -2):
        with pytest.raises(ValueError, match="m >= 2"):
            neutral_delta(m, 6.0, PARAMS)
    for R in (0.0, -6.0, math.nan):
        with pytest.raises(ValueError, match="R must be > 0"):
            neutral_delta(2, R, PARAMS)


def test_spectral_report_rejects_bad_inputs():
    for m_max in (1, 0):
        with pytest.raises(ValueError, match="m_max must be >= 2"):
            spectral_report(6.0, PARAMS, m_max)
    for R in (0.0, -6.0, math.nan):
        with pytest.raises(ValueError, match="R must be > 0"):
            spectral_report(R, PARAMS, 8)
