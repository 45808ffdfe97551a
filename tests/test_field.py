import math

import numpy as np
import pytest

from ksring.field import (
    GridSpec,
    PeriodicField,
    centered_difference,
    inner_h,
    mode_amplitudes,
    norm_h,
    pw_linear_square_integral,
    sample_cosine_sum,
    sample_cosine_sum_dsigma,
    seminorm_1h,
    seminorm_2h,
    zeros,
)

TWO_PI = 2.0 * math.pi


def random_field(J, seed):
    rng = np.random.default_rng(seed)
    return PeriodicField(rng.standard_normal(J), TWO_PI / J)


def test_grid_spec_basics():
    g = GridSpec(16)
    assert g.h == TWO_PI / 16
    assert g.sigma.shape == (16,)
    assert g.sigma[0] == 0.0
    np.testing.assert_allclose(np.diff(g.sigma), g.h, rtol=0, atol=1e-15)


@pytest.mark.parametrize("J", [7, 6, 0, -8])
def test_grid_spec_rejects_bad_J(J):
    with pytest.raises(ValueError):
        GridSpec(J)


def test_field_rejects_mismatched_h():
    with pytest.raises(ValueError):
        PeriodicField(np.zeros(8), 0.5)


def test_field_is_immutable():
    V = zeros(GridSpec(8))
    assert not V.values.flags.writeable
    with pytest.raises(AttributeError):
        V.values = np.ones(8)


def test_wraparound_indexing():
    V = random_field(8, 0)
    for i in range(-16, 24):
        assert V[i] == V.values[i % 8]


def test_norms_match_loop_sums():
    # oracle: the defining sums written as explicit loops
    for J, seed in [(8, 1), (32, 2)]:
        V = random_field(J, seed)
        W = random_field(J, seed + 100)
        h = V.h
        ip = sum(V[i] * W[i] for i in range(J)) * h
        nrm = math.sqrt(sum(V[i] ** 2 for i in range(J)) * h)
        s1 = math.sqrt(sum(((V[i] - V[i - 1]) / h) ** 2 for i in range(J)) * h)
        s2 = math.sqrt(
            sum(((V[i + 1] - 2 * V[i] + V[i - 1]) / h**2) ** 2 for i in range(J)) * h
        )
        assert inner_h(V, W) == pytest.approx(ip, rel=1e-14)
        assert norm_h(V) == pytest.approx(nrm, rel=1e-14)
        assert seminorm_1h(V) == pytest.approx(s1, rel=1e-13)
        assert seminorm_2h(V) == pytest.approx(s2, rel=1e-13)


def test_inner_h_rejects_mixed_grids():
    with pytest.raises(ValueError):
        inner_h(random_field(8, 3), random_field(16, 3))


@pytest.mark.parametrize("J", [8, 32])
def test_parseval(J):
    V = random_field(J, J)
    hat = np.fft.rfft(V.values) / J
    spectral = TWO_PI * (
        abs(hat[0]) ** 2 + abs(hat[-1]) ** 2 + 2.0 * np.sum(np.abs(hat[1:-1]) ** 2)
    )
    assert norm_h(V) ** 2 == pytest.approx(spectral, rel=1e-12)


def test_mode_amplitudes_pure_cosine():
    g = GridSpec(32)
    V = PeriodicField(np.cos(3 * g.sigma), g.h)
    amps = mode_amplitudes(V)
    assert amps.shape == (17,)
    assert amps[3] == pytest.approx(0.5, abs=1e-12)
    others = np.delete(amps, 3)
    assert np.max(others) <= 1e-12


def test_sample_cosine_sum_matches_formula():
    g = GridSpec(64)
    pairs = [(0.3, 2), (0.1, 5)]
    U = sample_cosine_sum(g, pairs)
    expected = 0.3 * np.cos(2 * g.sigma) + 0.1 * np.cos(5 * g.sigma)
    np.testing.assert_allclose(U.values, expected, rtol=0, atol=1e-15)
    V = sample_cosine_sum_dsigma(g, pairs)
    expected_d = -0.6 * np.sin(2 * g.sigma) - 0.5 * np.sin(5 * g.sigma)
    np.testing.assert_allclose(V.values, expected_d, rtol=0, atol=1e-15)


def test_centered_difference_of_cosine():
    # (cos(m(s+h)) - cos(m(s-h))) / 2h = -sin(ms) sin(mh) / h, exactly
    g = GridSpec(32)
    m = 3
    U = PeriodicField(np.cos(m * g.sigma), g.h)
    D = centered_difference(U)
    expected = -np.sin(m * g.sigma) * math.sin(m * g.h) / g.h
    np.testing.assert_allclose(D.values, expected, rtol=0, atol=1e-13)


def test_seminorm_1h_of_cosine():
    # forward differences of cos(ms) have squared h-sum pi * (2 sin(mh/2)/h)^2
    g = GridSpec(64)
    m = 4
    V = PeriodicField(np.cos(m * g.sigma), g.h)
    expected = math.sqrt(math.pi) * 2.0 * math.sin(m * g.h / 2) / g.h
    assert seminorm_1h(V) == pytest.approx(expected, rel=1e-12)


def test_seminorm_2h_of_cosine():
    g = GridSpec(64)
    m = 4
    V = PeriodicField(np.cos(m * g.sigma), g.h)
    s_m = (4.0 / g.h**2) * math.sin(m * g.h / 2) ** 2
    assert seminorm_2h(V) == pytest.approx(math.sqrt(math.pi) * s_m, rel=1e-12)


def test_pw_linear_square_integral_constant():
    h = TWO_PI / 16
    assert pw_linear_square_integral(np.full(16, 3.0), h) == pytest.approx(
        TWO_PI * 9.0, rel=1e-14
    )


def test_pw_linear_square_integral_random_vs_quadrature():
    # oracle: dense trapezoid on the piecewise linear interpolant itself
    rng = np.random.default_rng(7)
    J = 8
    h = TWO_PI / J
    vals = rng.standard_normal(J)
    closed = np.append(vals, vals[0])
    total = 0.0
    panels = 10_000
    for i in range(J):
        s = np.linspace(0.0, 1.0, panels + 1)
        seg = (1 - s) * closed[i] + s * closed[i + 1]
        total += np.trapezoid(seg**2, dx=h / panels)
    # trapezoid on the squared interpolant is itself O((h/panels)^2) accurate
    assert pw_linear_square_integral(vals, h) == pytest.approx(total, rel=1e-7)


def test_periodic_field_rejects_two_dimensional_values():
    with pytest.raises(ValueError, match="one dimensional"):
        PeriodicField(np.zeros((2, 8)))


def test_periodic_field_spacing_defaults_to_the_grid():
    assert PeriodicField(np.zeros(16)).h == TWO_PI / 16
    assert PeriodicField(np.zeros(16)).h == GridSpec(16).h
