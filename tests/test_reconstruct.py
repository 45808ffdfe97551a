import math
import types

import numpy as np
import pytest

from ksring.field import GridSpec, PeriodicField, sample_cosine_sum_dsigma
from ksring.params import ModelParams, SolverConfig, TimeGrid
from ksring.radius import RadiusLaw
from ksring.reconstruct import curve_points, mean_I, mean_I_path, reconstruct_u
from oracles import cumulative_v, interp_v, run, stored_v, v_squared_integral, zeros

TWO_PI = 2.0 * math.pi
SLOW = ModelParams(delta=4.0, alpha=1.5, v_c=0.001, R0=6.0)


def manual_traj(snapshots, k=0.1, params=SLOW):
    # hand-built trajectory: snapshot dict drives the interpolation tests
    steps = sorted(snapshots)
    N = steps[-1]
    J = len(snapshots[0])
    law = RadiusLaw(params)
    R_nodes = np.array([law.radius_at(n * k) for n in range(N + 1)])
    traj = types.SimpleNamespace(
        params=params,
        tgrid=TimeGrid(k=k, N=N),
        grid=GridSpec(J),
        law=law,
        method="manual",
        S=np.zeros(N + 1),
        Q=np.zeros(N + 1),
        A=np.zeros(N + 1),
        R_nodes=R_nodes,
    )
    traj.snapshots = {n: np.asarray(vals, dtype=float) for n, vals in snapshots.items()}
    return traj


def two_step_traj(seed=0, J=8):
    rng = np.random.default_rng(seed)
    return manual_traj({0: rng.standard_normal(J), 1: rng.standard_normal(J)})


def test_interp_reproduces_nodes():
    traj = two_step_traj()
    g = traj.grid
    for n in (0, 1):
        for i in range(g.J):
            assert interp_v(traj, g.sigma[i], n * traj.tgrid.k) == stored_v(traj, n)[i]


def test_interp_cell_center_is_corner_mean():
    traj = two_step_traj(seed=1)
    g = traj.grid
    k = traj.tgrid.k
    v0, v1 = stored_v(traj, 0), stored_v(traj, 1)
    for i in range(g.J):
        s = g.sigma[i] + 0.5 * g.h
        t = 0.5 * k
        corners = (v0[i] + v0[i + 1] + v1[i] + v1[i + 1]) / 4.0
        assert interp_v(traj, s, t) == pytest.approx(corners, rel=1e-14)


def test_interp_matches_bilinear_oracle():
    traj = two_step_traj(seed=2)
    g = traj.grid
    k = traj.tgrid.k
    rng = np.random.default_rng(3)
    v0, v1 = stored_v(traj, 0), stored_v(traj, 1)
    for _ in range(50):
        s = rng.uniform(0.0, TWO_PI)
        t = rng.uniform(0.0, k)
        i = min(int(s / g.h), g.J - 1)
        theta = (s - i * g.h) / g.h
        eta = t / k
        lo = (1 - theta) * v0[i] + theta * v0[i + 1]
        hi = (1 - theta) * v1[i] + theta * v1[i + 1]
        expected = (1 - eta) * lo + eta * hi
        assert interp_v(traj, s, t) == pytest.approx(expected, abs=1e-14)


def test_interp_endpoint_and_wrap():
    traj = two_step_traj(seed=4)
    k = traj.tgrid.k
    # t = T lands in the last time cell with full weight on the upper snapshot
    assert interp_v(traj, 0.0, k) == stored_v(traj, 1)[0]
    # sigma wraps modulo 2 pi
    assert interp_v(traj, TWO_PI + 0.3, 0.0) == pytest.approx(
        interp_v(traj, 0.3, 0.0), rel=1e-14
    )


def test_interp_rejects_time_outside_range():
    traj = two_step_traj()
    with pytest.raises(ValueError):
        interp_v(traj, 0.0, -0.01)
    with pytest.raises(ValueError):
        interp_v(traj, 0.0, traj.tgrid.T + 0.01)


def test_cumulative_endpoints():
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(16)
    vals -= vals.mean()  # zero mean closes the loop integral
    traj = manual_traj({0: vals, 1: vals})
    assert cumulative_v(traj, 0, 0) == 0.0
    assert abs(cumulative_v(traj, 16, 0)) <= 1e-12
    with pytest.raises(ValueError):
        cumulative_v(traj, 17, 0)


def test_cumulative_matches_loop_trapezoid():
    rng = np.random.default_rng(6)
    vals = rng.standard_normal(8)
    traj = manual_traj({0: vals, 1: vals})
    h = traj.grid.h
    for i in range(9):
        expected = sum(0.5 * h * (vals[j] + vals[(j + 1) % 8]) for j in range(i))
        assert cumulative_v(traj, i, 0) == pytest.approx(expected, abs=1e-13)


def test_cumulative_of_cosine_against_quadrature():
    # int_0^sigma of the interpolant of cos, checked against dense sampling
    J = 64
    g = GridSpec(J)
    vals = np.cos(g.sigma)
    traj = manual_traj({0: vals, 1: vals})
    closed = np.append(vals, vals[0])
    i = 40
    fine = 0.0
    for j in range(i):
        s = np.linspace(0.0, 1.0, 2001)
        seg = (1 - s) * closed[j] + s * closed[j + 1]
        fine += np.trapezoid(seg, dx=g.h / 2000)
    assert cumulative_v(traj, i, 0) == pytest.approx(fine, abs=1e-12)


def test_v_squared_integral_cases():
    zero = manual_traj({0: np.zeros(8), 1: np.zeros(8)})
    assert v_squared_integral(zero, 0) == 0.0
    const = manual_traj({0: np.full(8, 1.5), 1: np.full(8, 1.5)})
    assert v_squared_integral(const, 0) == pytest.approx(TWO_PI * 2.25, rel=1e-14)
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(8)
    traj = manual_traj({0: vals, 1: vals})
    closed = np.append(vals, vals[0])
    h = traj.grid.h
    dense = 0.0
    for j in range(8):
        s = np.linspace(0.0, 1.0, 10_001)
        seg = (1 - s) * closed[j] + s * closed[j + 1]
        dense += np.trapezoid(seg**2, dx=h / 10_000)
    assert v_squared_integral(traj, 0) == pytest.approx(dense, rel=1e-8)


def zero_run(N=100, J=64, k=0.01):
    g = GridSpec(J)
    law = RadiusLaw(SLOW)
    return run(SLOW, TimeGrid(k=k, N=N), g, SolverConfig(), zeros(g), law=law), law


def test_mean_I_zero_field_follows_rate_ratio():
    traj, law = zero_run()
    rate0 = law.rate(SLOW.R0)
    for n in (0, 50, 100):
        expected = 5.0 * law.rate(traj.R_nodes[n]) / rate0
        assert mean_I(traj, 5.0, n) == pytest.approx(expected, rel=1e-13)
    assert mean_I(traj, 5.0, 0) == pytest.approx(5.0, rel=1e-15)


def test_mean_I_path_matches_pointwise():
    g = GridSpec(64)
    law = RadiusLaw(SLOW)
    v0 = sample_cosine_sum_dsigma(g, [(0.1, 2), (0.1, 3)])
    traj = run(SLOW, TimeGrid(k=0.01, N=50), g, SolverConfig(), v0, law=law)
    path = mean_I_path(traj, 0.3)
    assert path.shape == (51,)
    for n in (0, 17, 50):
        assert path[n] == pytest.approx(mean_I(traj, 0.3, n), rel=1e-13)


def test_mean_I_path_over_several_blocks_is_mean_I_bit_for_bit():
    # mean_I_path works 1024 steps at a time; every entry, on either side of
    # a block edge, is mean_I's value at that step
    g = GridSpec(16)
    v0 = sample_cosine_sum_dsigma(g, [(0.1, 2), (0.1, 3)])
    traj = run(SLOW, TimeGrid(k=0.01, N=2500), g, SolverConfig(newton_iters=1), v0, store_stride=2500)
    path = mean_I_path(traj, 0.3)
    assert path.shape == (2501,)
    expected = np.array([mean_I(traj, 0.3, n) for n in range(2501)])
    np.testing.assert_array_equal(path.view(np.int64), expected.view(np.int64))


def test_mean_I_satisfies_discrete_ode():
    # central difference residual of dI/dt = -((a-1)/R^2) I + (v_c/4pi R^2) Q
    g = GridSpec(64)
    law = RadiusLaw(SLOW)
    v0 = sample_cosine_sum_dsigma(g, [(0.1, 2), (0.1, 3)])
    k = 0.01
    traj = run(SLOW, TimeGrid(k=k, N=100), g, SolverConfig(), v0, law=law)
    I = mean_I_path(traj, 0.2)
    a = SLOW.alpha - 1.0
    for n in range(1, 100):
        R = traj.R_nodes[n]
        dI = (I[n + 1] - I[n - 1]) / (2 * k)
        rhs = -(a / R**2) * I[n] + SLOW.v_c * traj.Q[n] / (4 * math.pi * R**2)
        scale = max(1.0, abs(dI), abs(rhs))
        assert abs(dI - rhs) <= 10.0 * k**2 * scale


def test_reconstruct_zero_field_is_scaled_constant():
    traj, law = zero_run(N=10)
    u = reconstruct_u(traj, 5.0, 10, traj.snapshots[10])
    expected = 5.0 * law.rate(traj.R_nodes[10]) / law.rate(SLOW.R0)
    np.testing.assert_allclose(u.values, expected, rtol=1e-13)


def test_reconstruct_recovers_cosine_height():
    # v = d/dsigma cos(2 sigma) sampled; reconstruction error is O(h^2)
    errs = []
    for J in (32, 64):
        g = GridSpec(J)
        vals = -2.0 * np.sin(2.0 * g.sigma)
        traj = manual_traj({0: vals, 1: vals}, params=SLOW)
        u = reconstruct_u(traj, 0.0, 0, traj.snapshots[0])
        errs.append(np.abs(u.values - np.cos(2.0 * g.sigma)).max())
    assert errs[0] <= 0.05
    # halving h divides the error by about four
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


def test_reconstruct_interpolant_mean_is_mean_I():
    # the piecewise quadratic u integrates back to Itilde
    rng = np.random.default_rng(8)
    vals = rng.standard_normal(16)
    traj = manual_traj({0: vals, 1: vals})
    law = traj.law
    I0 = 0.7
    u = reconstruct_u(traj, I0, 0, traj.snapshots[0])
    h = traj.grid.h
    closed_v = np.append(vals, vals[0])
    closed_u = np.append(u.values, u.values[0])
    total = 0.0
    panels = 4000
    for j in range(16):
        s = np.linspace(0.0, 1.0, panels + 1)
        # u on the cell: node value plus the running trapezoid of linear v
        seg_v = (1 - s) * closed_v[j] + s * closed_v[j + 1]
        seg_u = closed_u[j] + np.concatenate(
            ([0.0], np.cumsum(0.5 * (seg_v[1:] + seg_v[:-1]) * (h / panels)))
        )
        total += np.trapezoid(seg_u, dx=h / panels)
    assert total / TWO_PI == pytest.approx(mean_I(traj, I0, 0), abs=1e-8)


def test_reconstruct_u_matches_roll_formula_bitwise():
    # the height formula with np.roll shifts and the cumulative sum built twice
    traj = two_step_traj(seed=3, J=16)
    v, h = stored_v(traj, 1).values, traj.grid.h
    c = np.concatenate(([0.0], np.cumsum(0.5 * h * (v + np.roll(v, -1)))))
    cells = h * c[:-1] + h * h * (2.0 * v + np.roll(v, -1)) / 6.0
    expected = (mean_I(traj, 0.3, 1) - float(np.sum(cells)) / TWO_PI) + c[:-1]
    got = reconstruct_u(traj, 0.3, 1, traj.snapshots[1]).values
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_curve_is_closed_and_circular_for_flat_interface():
    traj, law = zero_run(N=10)
    pts = curve_points(traj, 10, reconstruct_u(traj, 0.0, 10, traj.snapshots[10]))
    assert pts.shape == (traj.grid.J + 1, 2)
    np.testing.assert_array_equal(pts[0], pts[-1])
    radii = np.hypot(pts[:, 0], pts[:, 1])
    np.testing.assert_allclose(radii, traj.R_nodes[10], rtol=1e-13)


def test_curve_radii_follow_reconstruction():
    g = GridSpec(32)
    law = RadiusLaw(SLOW)
    v0 = sample_cosine_sum_dsigma(g, [(0.1, 2)])
    traj = run(SLOW, TimeGrid(k=0.01, N=10), g, SolverConfig(), v0, law=law)
    u = reconstruct_u(traj, 0.0, 10, traj.snapshots[10])
    pts = curve_points(traj, 10, u)
    radii = np.hypot(pts[:-1, 0], pts[:-1, 1])
    np.testing.assert_allclose(radii, traj.R_nodes[10] + u.values, rtol=1e-12)


def test_mean_I_rejects_steps_outside_the_run():
    traj, _ = zero_run(N=10)
    for n in (-1, 11):
        with pytest.raises(ValueError, match=r"outside 0\.\.10"):
            mean_I(traj, 0.0, n)


def test_steps_must_be_integers():
    # a float step is refused by name, not by NumPy's indexing; a NumPy integer is a step
    traj, _ = zero_run(N=10)
    u = reconstruct_u(traj, 0.0, 10, traj.snapshots[10])
    for call in (lambda: mean_I(traj, 0.0, 1.5), lambda: curve_points(traj, 9.5, u),
                 lambda: mean_I(traj, 0.0, 2.0), lambda: reconstruct_u(traj, 0.0, 10.0, traj.snapshots[10])):
        with pytest.raises(ValueError, match="is not an integer"):
            call()
    assert mean_I(traj, 0.0, np.int64(10)) == mean_I(traj, 0.0, 10)
    assert np.array_equal(curve_points(traj, np.int32(10), u), curve_points(traj, 10, u))


def test_curve_points_rejects_steps_outside_the_run():
    # mean_I's check: at step -1 the curve would quietly take R(T) as its radius
    traj, _ = zero_run(N=10)
    u = reconstruct_u(traj, 0.0, 10, traj.snapshots[10])
    for n in (-1, 11):
        with pytest.raises(ValueError, match=rf"step {n} outside 0\.\.10"):
            curve_points(traj, n, u)
