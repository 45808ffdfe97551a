import math

import numpy as np
import pytest

from ksring.field import GridSpec, PeriodicField, inner_h, norm_h, seminorm_1h, seminorm_2h
from ksring.operators import (
    LinearOperatorCoefficients,
    _psi_apply,
    apply_L,
    bilaplacian_h,
    laplacian_h,
    modal_symbol,
    phi,
    psi,
    psi_coefficients,
    second_difference_symbol,
    symbol_array,
)
from ksring.params import ModelParams

TWO_PI = 2.0 * math.pi
PARAMS = ModelParams(delta=4.0, alpha=1.5, v_c=0.001, R0=6.0)


def random_field(J, seed):
    rng = np.random.default_rng(seed)
    return PeriodicField(rng.standard_normal(J), TWO_PI / J)


def loop_laplacian(V):
    J, h = V.J, V.h
    return np.array([(V[i - 1] - 2 * V[i] + V[i + 1]) / h**2 for i in range(J)])


def loop_phi(V, W):
    J = V.J
    return np.array(
        [(V[i - 1] + V[i] + V[i + 1]) * (W[i + 1] - W[i - 1]) for i in range(J)]
    )


def loop_psi(V, W):
    J = V.J
    return np.array(
        [
            -(2 * V[i - 1] + V[i]) * W[i - 1]
            + (V[i + 1] - V[i - 1]) * W[i]
            + (2 * V[i + 1] + V[i]) * W[i + 1]
            for i in range(J)
        ]
    )


def test_laplacian_matches_loop_stencil():
    V = random_field(8, 0)
    np.testing.assert_array_equal(laplacian_h(V).values, loop_laplacian(V))


def test_bilaplacian_is_laplacian_squared():
    V = random_field(8, 1)
    twice = laplacian_h(laplacian_h(V))
    np.testing.assert_allclose(
        bilaplacian_h(V).values, twice.values, rtol=1e-12, atol=1e-12
    )


def test_bilaplacian_matches_five_point_loop():
    V = random_field(8, 2)
    h = V.h
    expected = np.array(
        [
            (V[i - 2] - 4 * V[i - 1] + 6 * V[i] - 4 * V[i + 1] + V[i + 2]) / h**4
            for i in range(8)
        ]
    )
    np.testing.assert_allclose(bilaplacian_h(V).values, expected, rtol=1e-13)


def test_phi_psi_match_loop_stencils():
    V, W = random_field(8, 3), random_field(8, 4)
    np.testing.assert_array_equal(phi(V, W).values, loop_phi(V, W))
    np.testing.assert_array_equal(psi(V, W).values, loop_psi(V, W))


def test_hoisted_psi_and_sliced_phi_match_loop_stencils():
    # psi_coefficients(V) is computed once and applied to several W, as in a
    # Newton step; the explicit index loops are the docstring's stencils.
    J = 16
    V = random_field(J, 10)
    coeffs = psi_coefficients(V.values)
    for seed in (11, 12, 13):
        W = random_field(J, seed)
        for got, expected in (
            (_psi_apply(coeffs, W.values), loop_psi(V, W)),
            (phi(V, W).values, loop_phi(V, W)),
        ):
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14 * np.abs(expected).max())


@pytest.mark.parametrize("m", [1, 3, 5])
def test_laplacian_symbol_on_cosine(m):
    # discrete eigenvalue of cos(ms) is -(4/h^2) sin^2(mh/2)
    g = GridSpec(32)
    V = PeriodicField(np.cos(m * g.sigma), g.h)
    s_m = second_difference_symbol(m, g.h)
    np.testing.assert_allclose(
        laplacian_h(V).values, -s_m * V.values, rtol=0, atol=1e-12
    )
    np.testing.assert_allclose(
        bilaplacian_h(V).values, s_m**2 * V.values, rtol=0, atol=1e-10
    )


def test_apply_L_matches_composition():
    coeffs = LinearOperatorCoefficients.at_radius(PARAMS, 6.0)
    V = random_field(64, 5)
    composed = (
        coeffs.c4 * bilaplacian_h(V).values
        + coeffs.c2 * laplacian_h(V).values
        + coeffs.c0 * V.values
    )
    np.testing.assert_allclose(
        apply_L(coeffs, V).values, composed, rtol=1e-13, atol=1e-13
    )


def test_apply_L_constant_field():
    coeffs = LinearOperatorCoefficients.at_radius(PARAMS, 6.0)
    V = PeriodicField(np.full(16, 2.5), TWO_PI / 16)
    np.testing.assert_allclose(
        apply_L(coeffs, V).values, np.full(16, coeffs.c0 * 2.5), rtol=1e-14
    )


def test_modal_symbol_matches_apply_L_on_cosine():
    coeffs = LinearOperatorCoefficients.at_radius(PARAMS, 6.0)
    g = GridSpec(32)
    m = 4
    V = PeriodicField(np.cos(m * g.sigma), g.h)
    mu = modal_symbol(coeffs, m, g.h)
    np.testing.assert_allclose(apply_L(coeffs, V).values, mu * V.values, atol=1e-10)


def test_symbol_array_layout():
    coeffs = LinearOperatorCoefficients.at_radius(PARAMS, 9.0)
    g = GridSpec(16)
    arr = symbol_array(coeffs, g.J, g.h)
    assert arr.shape == (9,)
    for m in range(9):
        assert arr[m] == pytest.approx(modal_symbol(coeffs, m, g.h), rel=1e-14)
    assert arr[0] == pytest.approx(coeffs.c0, rel=1e-14)


def test_coefficients_at_radius():
    c = LinearOperatorCoefficients.at_radius(PARAMS, 6.0)
    R = 6.0
    assert c.c4 == pytest.approx(4.0 / R**4, rel=1e-15)
    assert c.c2 == pytest.approx((0.5 + 4.0 / R**2) / R**2, rel=1e-15)
    assert c.c0 == pytest.approx(0.5 / R**2, rel=1e-15)


# summation identities for the discrete forms, checked over random triples

JS = [8, 16, 64]
TRIPLES = 100


def triples(J):
    rng = np.random.default_rng(J)
    for _ in range(TRIPLES):
        yield (
            PeriodicField(rng.standard_normal(J), TWO_PI / J),
            PeriodicField(rng.standard_normal(J), TWO_PI / J),
            PeriodicField(rng.standard_normal(J), TWO_PI / J),
        )


def assert_close(lhs, rhs, scale):
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, scale)


@pytest.mark.parametrize("J", JS)
def test_identity_phi_vw_w(J):
    # (phi(V, W), W)_h = -h sum (V_{i+1} - V_{i-2}) W_i W_{i-1}
    for V, W, _ in triples(J):
        h = V.h
        lhs = inner_h(phi(V, W), W)
        rhs = -h * sum((V[i + 1] - V[i - 2]) * W[i] * W[i - 1] for i in range(J))
        assert_close(lhs, rhs, abs(lhs) + abs(rhs))


@pytest.mark.parametrize("J", JS)
def test_identity_phi_vv_w(J):
    # (phi(V, V), W)_h = -h sum (V_i^2 + V_i V_{i+1} + V_{i+1}^2)(W_{i+1} - W_i)
    for V, W, _ in triples(J):
        h = V.h
        lhs = inner_h(phi(V, V), W)
        rhs = -h * sum(
            (V[i] ** 2 + V[i] * V[i + 1] + V[i + 1] ** 2) * (W[i + 1] - W[i])
            for i in range(J)
        )
        assert_close(lhs, rhs, abs(lhs) + abs(rhs))


@pytest.mark.parametrize("J", JS)
def test_identity_psi_vw_u(J):
    # (psi(V, W), U)_h = -h sum [V_i(W_{i+1} + 2W_i) + V_{i+1}(2W_{i+1} + W_i)](U_{i+1} - U_i)
    for V, W, U in triples(J):
        h = V.h
        lhs = inner_h(psi(V, W), U)
        rhs = -h * sum(
            (V[i] * (W[i + 1] + 2 * W[i]) + V[i + 1] * (2 * W[i + 1] + W[i]))
            * (U[i + 1] - U[i])
            for i in range(J)
        )
        assert_close(lhs, rhs, abs(lhs) + abs(rhs))


@pytest.mark.parametrize("J", JS)
def test_identity_phi_vv_v_vanishes(J):
    for V, _, _ in triples(J):
        lhs = inner_h(phi(V, V), V)
        assert abs(lhs) <= 1e-12 * max(1.0, norm_h(V) ** 3)


@pytest.mark.parametrize("J", JS)
def test_identity_phi_difference_split(J):
    # phi(V, V) - phi(W, W) = psi(W, V - W) + phi(V - W, V - W)
    for V, W, _ in triples(J):
        D = PeriodicField(V.values - W.values, V.h)
        lhs = phi(V, V).values - phi(W, W).values
        rhs = psi(W, D).values + phi(D, D).values
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12 * max(1.0, np.abs(lhs).max()))


@pytest.mark.parametrize("J", JS)
def test_identity_laplacian_first_seminorm(J):
    for V, _, _ in triples(J):
        lhs = -inner_h(laplacian_h(V), V)
        rhs = seminorm_1h(V) ** 2
        assert_close(lhs, rhs, abs(rhs))


@pytest.mark.parametrize("J", JS)
def test_identity_bilaplacian_second_seminorm(J):
    for V, _, _ in triples(J):
        lhs = inner_h(bilaplacian_h(V), V)
        rhs = seminorm_2h(V) ** 2
        assert_close(lhs, rhs, abs(rhs))


@pytest.mark.parametrize("J", JS)
def test_interpolation_bound(J):
    for V, _, _ in triples(J):
        assert seminorm_1h(V) ** 2 <= norm_h(V) * seminorm_2h(V) * (1 + 1e-12)


@pytest.mark.parametrize("J", JS)
@pytest.mark.parametrize("eta", [0.1, 1.0, 10.0])
def test_young_bound(J, eta):
    for V, _, _ in triples(J):
        lhs = seminorm_1h(V) ** 2
        rhs = eta * seminorm_2h(V) ** 2 + norm_h(V) ** 2 / (4 * eta)
        assert lhs <= rhs * (1 + 1e-12)


@pytest.mark.parametrize("R", [0.0, -6.0, math.nan, np.array([6.0, -6.0])])
def test_coefficients_reject_nonpositive_radii(R):
    with pytest.raises(ValueError, match="R must be > 0"):
        LinearOperatorCoefficients.at_radius(PARAMS, R)
