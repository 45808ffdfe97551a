import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ksring.field import (
    GridSpec,
    PeriodicField,
    norm_h,
    pw_linear_square_integral,
    sample_cosine_sum_dsigma,
)
from ksring.operators import LinearOperatorCoefficients, _symbol
from ksring.params import ModelParams, SolverConfig, TimeGrid
from ksring.radius import RadiusLaw
import ksring.solver as solver
from ksring.solver import (
    SchemeContext,
    SolverError,
    _Workspace,
    _irfft,
    _newton_step,
    _rfft,
    check_admissibility,
    integrate,
)
from oracles import (
    c_phi,
    cn_residual,
    cn_step,
    extrapolate,
    final,
    mean_step_factor,
    newton_first_step,
    newton_iterate,
    phi,
    psi,
    run,
    solve_linear_cn,
    step_coefficients,
    stored_steps,
    stored_v,
)

TWO_PI = 2.0 * math.pi
SLOW = ModelParams(delta=4.0, alpha=1.5, v_c=0.001, R0=6.0)


def make_ctx(J=8, k=0.01, N=10, params=SLOW):
    return SchemeContext(params, TimeGrid(k=k, N=N), GridSpec(J))


def random_field(J, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return PeriodicField(scale * rng.standard_normal(J))


def loop_L(values, coeffs, h):
    J = len(values)
    v = lambda i: values[i % J]
    out = []
    for i in range(J):
        d2 = (v(i - 1) - 2 * v(i) + v(i + 1)) / h**2
        d4 = (v(i - 2) - 4 * v(i - 1) + 6 * v(i) - 4 * v(i + 1) + v(i + 2)) / h**4
        out.append(coeffs.c4 * d4 + coeffs.c2 * d2 + coeffs.c0 * v(i))
    return np.array(out)


def loop_phi(values_v, values_w):
    J = len(values_v)
    v = lambda i: values_v[i % J]
    w = lambda i: values_w[i % J]
    return np.array([(v(i - 1) + v(i) + v(i + 1)) * (w(i + 1) - w(i - 1)) for i in range(J)])


def loop_psi(values_v, values_w):
    J = len(values_v)
    v = lambda i: values_v[i % J]
    w = lambda i: values_w[i % J]
    return np.array(
        [
            -(2 * v(i - 1) + v(i)) * w(i - 1)
            + (v(i + 1) - v(i - 1)) * w(i)
            + (2 * v(i + 1) + v(i)) * w(i + 1)
            for i in range(J)
        ]
    )


def step_operator(ctx, n):
    # the operator coefficients of step n, from the context's tables
    return LinearOperatorCoefficients(ctx.c4[n], ctx.c2[n], ctx.c0[n])


def dense_cn_matrix(ctx, n):
    # (1/k) Id + (1/2) L assembled column by column from the loop stencil
    J, h, k = ctx.grid.J, ctx.grid.h, ctx.tgrid.k
    A = np.zeros((J, J))
    for j in range(J):
        e = np.zeros(J)
        e[j] = 1.0
        A[:, j] = 0.5 * loop_L(e, step_operator(ctx, n), h)
    A += np.eye(J) / k
    return A


def test_admissibility_passes_for_reference_setup():
    law = RadiusLaw(SLOW)
    report = check_admissibility(SLOW, TimeGrid(k=0.01, N=100), law)
    assert report.r0_bound == pytest.approx(math.sqrt(8.0), rel=1e-15)
    assert report.r0_pass and report.k_pass and report.passed
    assert report.k_bound > 100.0


@pytest.mark.parametrize(
    "params, tgrid",
    [
        (SLOW, TimeGrid(k=0.01, N=100)),
        (ModelParams(delta=4.0, alpha=1.5, v_c=0.001, R0=2.0), TimeGrid(k=0.01, N=10)),
        (ModelParams(delta=0.1, alpha=2.5, v_c=0.001, R0=10.0), TimeGrid(k=0.5, N=4)),
        (ModelParams(delta=4.0, alpha=1.28, v_c=0.1, R0=60.0), TimeGrid(k=1.0 / 64, N=64)),
    ],
)
def test_admissibility_without_a_law_solves_the_params_own(params, tgrid):
    # with no law given, check_admissibility builds RadiusLaw(params): the same report, field by field
    derived, given = check_admissibility(params, tgrid), check_admissibility(params, tgrid, RadiusLaw(params))
    assert derived == given
    assert [x.hex() for x in (derived.r0_bound, derived.k_bound, derived.R_T)] == [
        x.hex() for x in (given.r0_bound, given.k_bound, given.R_T)
    ]


def test_admissibility_fails_small_radius():
    p = ModelParams(delta=4.0, alpha=1.5, v_c=0.001, R0=2.0)
    report = check_admissibility(p, TimeGrid(k=0.01, N=10), RadiusLaw(p))
    assert not report.r0_pass
    assert not report.passed


def test_admissibility_fails_large_step():
    p = ModelParams(delta=0.1, alpha=2.5, v_c=0.001, R0=10.0)
    report = check_admissibility(p, TimeGrid(k=0.5, N=4), RadiusLaw(p))
    assert report.r0_pass
    assert not report.k_pass
    assert report.k_bound < 0.5


def test_run_rejects_inadmissible_setup():
    p = ModelParams(delta=4.0, alpha=1.5, v_c=0.001, R0=2.0)
    g = GridSpec(16)
    v0 = sample_cosine_sum_dsigma(g, [(0.01, 2)])
    with pytest.raises(SolverError):
        run(p, TimeGrid(k=0.01, N=5), g, SolverConfig(), v0, law=RadiusLaw(p))
    traj = run(
        p,
        TimeGrid(k=0.01, N=5),
        g,
        SolverConfig(),
        v0,
        law=RadiusLaw(p),
        require_admissible=False,
    )
    assert traj.tgrid.N == 5


def test_cn_residual_matches_loop_assembly():
    ctx = make_ctx(J=8)
    Vn = random_field(8, 0, scale=0.1)
    Vnp1 = random_field(8, 1, scale=0.1)
    mid = 0.5 * (Vn.values + Vnp1.values)
    expected = (
        (Vnp1.values - Vn.values) / ctx.tgrid.k
        + loop_L(mid, step_operator(ctx, 0), ctx.grid.h)
        - c_phi(ctx)[0] * loop_phi(mid, mid)
    )
    got = cn_residual(Vn, Vnp1, 0, ctx).values
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13 * np.abs(expected).max())


@pytest.mark.parametrize("m", [1, 2, 3])
def test_solve_linear_cn_divides_cosine_by_symbol(m):
    ctx = make_ctx(J=16)
    sc = step_coefficients(ctx, 0)
    g = ctx.grid
    rhs = PeriodicField(np.cos(m * g.sigma))
    out = solve_linear_cn(rhs, 0, ctx)
    np.testing.assert_allclose(
        out.values, rhs.values / sc.denom[m], rtol=0, atol=1e-12
    )


def test_solve_linear_cn_matches_dense_solve():
    ctx = make_ctx(J=8)
    rhs = random_field(8, 2)
    expected = np.linalg.solve(dense_cn_matrix(ctx, 0), rhs.values)
    np.testing.assert_allclose(
        solve_linear_cn(rhs, 0, ctx).values, expected, rtol=0, atol=1e-12
    )


def test_first_step_matches_dense_solve():
    ctx = make_ctx(J=8)
    v0 = random_field(8, 3, scale=0.1)
    nl = c_phi(ctx)[0] * loop_phi(v0.values, v0.values)
    nl -= nl.mean()  # the stepper drops the roundoff mean of the stencil
    rhs = v0.values / ctx.tgrid.k - 0.5 * loop_L(v0.values, step_operator(ctx, 0), ctx.grid.h) + nl
    expected = np.linalg.solve(dense_cn_matrix(ctx, 0), rhs)
    got = newton_first_step(v0, ctx).values
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)


def test_first_step_of_zero_is_zero():
    ctx = make_ctx(J=16)
    z = PeriodicField(np.zeros(16))
    assert np.abs(newton_first_step(z, ctx).values).max() <= 1e-16


def test_newton_iterate_matches_dense_solve():
    ctx = make_ctx(J=8, N=10)
    n = 2
    sc = step_coefficients(ctx, n)
    Vn = random_field(8, 4, scale=0.1)
    Vhat = random_field(8, 5, scale=0.1)
    Wj = random_field(8, 6, scale=0.1)
    b = Vn.values + Vhat.values
    nl = sc.c_psi * (loop_psi(b, Wj.values - Vhat.values) + loop_phi(b, b))
    nl -= nl.mean()
    rhs = Vn.values / ctx.tgrid.k - 0.5 * loop_L(Vn.values, step_operator(ctx, n), ctx.grid.h) + nl
    expected = np.linalg.solve(dense_cn_matrix(ctx, n), rhs)
    got = newton_iterate(Vn, Vhat, Wj, n, ctx).values
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)


def test_cn_step_reaches_fixed_point():
    ctx = make_ctx(J=64, k=0.01)
    g = ctx.grid
    v0 = sample_cosine_sum_dsigma(g, [(0.1, 2), (0.1, 3)])
    W = cn_step(v0, 0, ctx)
    assert norm_h(cn_residual(v0, W, 0, ctx)) <= 1e-12


@pytest.mark.parametrize("eps, rel", [(1e-6, 1e-3), (1e-8, 1e-4)])
def test_single_mode_growth_factor(eps, rel):
    # a tiny single mode advances by numer/denom; contamination is O(eps)
    ctx = make_ctx(J=64, k=0.01)
    sc = step_coefficients(ctx, 0)
    g = ctx.grid
    m = 2
    v0 = PeriodicField(eps * np.cos(m * g.sigma))
    W = cn_step(v0, 0, ctx)
    amp = (g.h / math.pi) * float(np.dot(W.values, np.cos(m * g.sigma)))
    expected = eps * sc.numer[m] / sc.denom[m]
    assert amp == pytest.approx(expected, rel=rel)


def test_mean_factor_formula():
    assert mean_step_factor(0.01, 6.0, 1.5) == pytest.approx(
        (72.0 - 0.005) / (72.0 + 0.005), rel=1e-15
    )


def test_mean_recursion_with_nonzero_start():
    # constant offset 1/(2 pi) gives S^0 = 1 exactly up to quadrature roundoff
    J, k, N = 64, 0.01, 200
    g = GridSpec(J)
    law = RadiusLaw(SLOW)
    v0 = PeriodicField(0.1 * np.cos(2 * g.sigma) - 0.05 * np.cos(3 * g.sigma) + 1.0 / TWO_PI)
    with pytest.warns(UserWarning):
        traj = run(SLOW, TimeGrid(k=k, N=N), g, SolverConfig(), v0, law=law)
    S_expected = traj.S[0]
    for n in range(N):
        R_half = law.radius_at((n + 0.5) * k)
        S_expected *= mean_step_factor(k, R_half, SLOW.alpha)
        assert traj.S[n + 1] == pytest.approx(S_expected, rel=1e-12)


def test_zero_mean_start_stays_zero():
    g = GridSpec(64)
    v0 = sample_cosine_sum_dsigma(g, [(0.1, 2), (0.1, 5)])
    traj = run(SLOW, TimeGrid(k=0.01, N=100), g, SolverConfig(), v0, law=RadiusLaw(SLOW))
    assert np.max(np.abs(traj.S)) <= 1e-14


def test_extrapolate_formula():
    V = random_field(8, 7)
    W = random_field(8, 8)
    np.testing.assert_array_equal(
        extrapolate(V, W).values, 2.0 * V.values - W.values
    )
    np.testing.assert_array_equal(extrapolate(V, V).values, V.values)


def test_run_is_deterministic():
    g = GridSpec(32)
    v0 = sample_cosine_sum_dsigma(g, [(0.1, 2), (0.1, 3)])
    kwargs = dict(law=RadiusLaw(SLOW), method="newton")
    a = run(SLOW, TimeGrid(k=0.01, N=50), g, SolverConfig(), v0, **kwargs)
    b = run(SLOW, TimeGrid(k=0.01, N=50), g, SolverConfig(), v0, **kwargs)
    np.testing.assert_array_equal(final(a).values, final(b).values)
    np.testing.assert_array_equal(a.S, b.S)
    np.testing.assert_array_equal(a.A, b.A)


def test_snapshot_stride_and_lookup():
    g = GridSpec(16)
    v0 = sample_cosine_sum_dsigma(g, [(0.01, 2)])
    traj = run(
        SLOW, TimeGrid(k=0.01, N=20), g, SolverConfig(), v0, law=RadiusLaw(SLOW), store_stride=7
    )
    assert stored_steps(traj) == [0, 7, 14, 20]
    assert 14 in traj.snapshots and 3 not in traj.snapshots
    with pytest.raises(KeyError):
        stored_v(traj, 3)
    assert final(traj).J == 16


def test_run_validates_inputs():
    g = GridSpec(16)
    v0 = sample_cosine_sum_dsigma(GridSpec(32), [(0.01, 2)])
    with pytest.raises(ValueError):
        run(SLOW, TimeGrid(k=0.01, N=5), g, SolverConfig(), v0)
    v0 = sample_cosine_sum_dsigma(g, [(0.01, 2)])
    with pytest.raises(ValueError):
        run(SLOW, TimeGrid(k=0.01, N=5), g, SolverConfig(), v0, method="euler")


def test_newton_tracks_reference():
    g = GridSpec(64)
    tg = TimeGrid(k=0.01, N=50)
    v0 = sample_cosine_sum_dsigma(g, [(0.1, 2), (0.1, 3)])
    law = RadiusLaw(SLOW)
    newton = run(SLOW, tg, g, SolverConfig(), v0, law=law, method="newton")
    ref = run(SLOW, tg, g, SolverConfig(), v0, law=law, method="reference")
    gap = max(
        norm_h(PeriodicField(newton.snapshots[n] - ref.snapshots[n]))
        for n in range(tg.N + 1)
    )
    assert gap <= 1e-8


def test_perturbation_growth_is_mild():
    # nearby trajectories separate by at most a factor 1 + c k per step
    g = GridSpec(64)
    tg = TimeGrid(k=0.01, N=50)
    law = RadiusLaw(SLOW)
    v0 = sample_cosine_sum_dsigma(g, [(0.1, 2), (0.1, 3)])
    pert = sample_cosine_sum_dsigma(g, [(1e-6, 2), (1e-6, 4)])
    v0p = PeriodicField(v0.values + pert.values)
    a = run(SLOW, tg, g, SolverConfig(), v0, law=law, method="reference")
    b = run(SLOW, tg, g, SolverConfig(), v0p, law=law, method="reference")
    norms = [
        norm_h(PeriodicField(b.snapshots[n] - a.snapshots[n]))
        for n in range(tg.N + 1)
    ]
    c = 10.0
    for before, after in zip(norms, norms[1:]):
        assert after <= (1.0 + c * tg.k) * before


def test_context_rejects_sign_flipped_denominator():
    # gigantic k drives 1/k + mu/2 negative for the stiff middle modes
    p = ModelParams(delta=4.0, alpha=3.0, v_c=0.001, R0=40.0)
    ctx = SchemeContext(p, TimeGrid(k=2000.0, N=1), GridSpec(64))
    with pytest.raises(SolverError):
        step_coefficients(ctx, 0)


def test_step_coefficients_read_radius_tables():
    # R_half is the one half-step radius, bitwise the law at (n + 1/2) k for
    # every n, and each row's c_psi derives from it.  At J = 1024 a
    # block of rows() holds 3 steps, so the 40 steps span 14 blocks.
    law = RadiusLaw(SLOW)
    tg = TimeGrid(k=0.25, N=40)
    g = GridSpec(1024)
    ctx = SchemeContext(SLOW, tg, g, law=law)
    rows = list(ctx.rows(0, tg.N))
    assert len(rows) == tg.N
    for n, sc in enumerate(rows):
        R = law.radius_at((n + 0.5) * tg.k)
        assert ctx.R_half[n] == R
        assert sc.c_psi == SLOW.v_c / (24.0 * g.h * R * R)
    assert ctx.R_nodes[40] == law.radius_at(tg.T)
    for n in (-1, 40):
        with pytest.raises(ValueError):
            step_coefficients(ctx, n)


def test_steps_match_step_coefficients_across_blocks():
    # run() reads the coefficients of many steps from one block; at J = 1024
    # a block holds a few steps, so 20 steps cross several block boundaries.
    tg = TimeGrid(k=0.01, N=20)
    ctx = SchemeContext(SLOW, tg, GridSpec(1024))
    blocks = list(ctx.rows(0, tg.N))
    assert len(blocks) == tg.N
    for n, sc in enumerate(blocks):
        one = step_coefficients(ctx, n)
        assert sc.c_psi == one.c_psi
        for name in ("denom", "numer"):
            a, b = getattr(sc, name), getattr(one, name)
            assert a.shape == (513,) and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_run_matches_public_step_functions():
    # run() and the public step functions share their kernels; chaining the
    # public ones reproduces run() up to the Fourier round trips run() skips.
    # The sweeps contract by about 1e-2 here, so a sweep more or less, or a
    # looser reference tolerance, moves the gap far above 1e-13.
    p = ModelParams(delta=0.1, alpha=1.5, v_c=1.0, R0=2.0)
    g = GridSpec(64)
    tg = TimeGrid(k=0.01, N=20)
    law = RadiusLaw(p)
    cfg = SolverConfig()
    ctx = SchemeContext(p, tg, g, law=law)
    v0 = sample_cosine_sum_dsigma(g, [(0.5, 2), (0.5, 3)])

    def rel_gap(traj, fields):
        return max(
            norm_h(PeriodicField(traj.snapshots[n] - V.values)) / norm_h(V)
            for n, V in enumerate(fields)
        )

    V = [v0, newton_first_step(v0, ctx)]
    for n in range(1, tg.N):
        Vhat = extrapolate(V[n], V[n - 1])
        W = Vhat
        for _ in range(cfg.newton_iters):
            W = newton_iterate(V[n], Vhat, W, n, ctx)
        V.append(W)
    newton = run(p, tg, g, cfg, v0, law=law, method="newton")
    assert rel_gap(newton, V) <= 1e-13

    V = [v0]
    for n in range(tg.N):
        V.append(cn_step(V[n], n, ctx))
    reference = run(p, tg, g, cfg, v0, law=law, method="reference")
    assert rel_gap(reference, V) <= 1e-13


# An independent step loop, kept as the oracle run() must match bit for bit:
# the coefficients are formed from R_{n+1/2} at every step, psi is applied on
# every sweep (the first one included, where its argument is zero) and every
# stencil operand is shifted by np.roll on its own.


def roll_phi(v, w):
    return (np.roll(v, 1) + v + np.roll(v, -1)) * (np.roll(w, -1) - np.roll(w, 1))


def roll_psi(v, w):
    vm, vp = np.roll(v, 1), np.roll(v, -1)
    return -(2.0 * vm + v) * np.roll(w, 1) + (vp - vm) * w + (2.0 * vp + v) * np.roll(w, -1)


def step_loop_oracle(p, tg, g, cfg, v0, law, method):
    h, k, N, J = g.h, tg.k, tg.N, g.J
    s = (4.0 / h**2) * np.sin(np.arange(J // 2 + 1) * h / 2.0) ** 2
    steps = np.arange(N + 1)
    R_nodes = law.radii(steps * k)
    R_half = law.radii((steps[:-1] + 0.5) * k)

    def nl_rfft(values):
        out = np.fft.rfft(values)
        out[0] = 0.0
        return out

    X = np.fft.rfft(v0.values)
    vn = v0.values.copy()
    S, Q, snaps = [h * X[0].real], [pw_linear_square_integral(vn, h)], [vn.copy()]
    v_prev = v_prev2 = vn  # V^{-1} = V^{-2} = V^0
    for n in range(N):
        R = float(R_half[n])
        R2 = R * R
        c4 = p.delta / (R2 * R2)
        c2 = (p.alpha - 1.0 + p.delta / R2) / R2
        c0 = (p.alpha - 1.0) / R2
        mu = c4 * (s * s) - c2 * s + c0
        denom, numer = 1.0 / k + 0.5 * mu, 1.0 / k - 0.5 * mu
        assert denom.min() > 0.0
        c_phi = p.v_c / (6.0 * h * R * R)
        c_psi = p.v_c / (24.0 * h * R * R)
        if method == "reference":
            w = 3.0 * (vn - v_prev) + v_prev2  # the quadratic predictor
            for _ in range(50):
                vq = 0.5 * (vn + w)
                X_next = (numer * X + nl_rfft(c_phi * roll_phi(vq, vq))) / denom
                w_next = np.fft.irfft(X_next, n=J)
                d = w_next - w
                w = w_next
                if math.sqrt(h * float(np.dot(d, d))) <= cfg.reference_tol * max(
                    1.0, math.sqrt(h * float(np.dot(w, w)))
                ):
                    break
            else:
                raise AssertionError(f"oracle reference step {n} did not converge")
            v_next = w
        elif n == 0:
            X_next = (numer * X + nl_rfft(c_phi * roll_phi(vn, vn))) / denom
            v_next = np.fft.irfft(X_next, n=J)
        else:
            vhat = 2.0 * vn - v_prev
            b = vn + vhat
            phi_bb = roll_phi(b, b)
            base = numer * X
            v_next = vhat
            for _ in range(cfg.newton_iters):
                rhs_nl = c_psi * (roll_psi(b, v_next - vhat) + phi_bb)
                X_next = (base + nl_rfft(rhs_nl)) / denom
                v_next = np.fft.irfft(X_next, n=J)
        Q.append(pw_linear_square_integral(v_next, h))
        S.append(h * X_next[0].real)
        snaps.append(v_next.copy())
        X, vn, v_prev, v_prev2 = X_next, v_next, vn, v_prev

    Q = np.array(Q)
    g_ = Q / (law.rate(R_nodes) * R_nodes**2)
    A = np.concatenate(([0.0], np.cumsum(0.5 * k * (g_[:-1] + g_[1:]))))
    return np.array(snaps), np.array(S), Q, A, R_nodes


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("J", [16, 64, 256])
@pytest.mark.parametrize("method", ["newton", "reference"])
def test_run_matches_step_loop_oracle_bitwise(method, J):
    # Same config as test_run_matches_public_step_functions: the sweeps
    # contract by about 1e-2, so a sweep more or less shows in the last bits.
    p = ModelParams(delta=0.1, alpha=1.5, v_c=1.0, R0=2.0)
    g = GridSpec(J)
    tg = TimeGrid(k=0.01, N=30)
    law = RadiusLaw(p)
    cfg = SolverConfig()
    v0 = sample_cosine_sum_dsigma(g, [(0.5, 2), (0.5, 3)])
    traj = run(p, tg, g, cfg, v0, law=law, method=method)
    snaps, S, Q, A, R_nodes = step_loop_oracle(p, tg, g, cfg, v0, law, method)
    assert stored_steps(traj) == list(range(tg.N + 1))
    got = np.array([traj.snapshots[n] for n in range(tg.N + 1)])
    assert np.array_equal(bits(got), bits(snaps))
    for name, expected in (("S", S), ("Q", Q), ("A", A), ("R_nodes", R_nodes)):
        assert np.array_equal(bits(getattr(traj, name)), bits(expected)), name


@pytest.mark.parametrize("method, jn", [("newton", 1), ("newton", 2), ("newton", 4), ("reference", 3)])
def test_run_buffer_rotation_matches_step_loop_oracle_bitwise(method, jn):
    # run() rotates V^{n-1}, V^n, V^{n+1} and two spectra through one
    # workspace; odd and even j_n and a store stride that does not divide N
    # show a buffer read out of turn.  SLOW is the README model.  (The
    # reference sweeps alternate between two buffers and read V^{n-2}; the
    # J = 256 case of test_run_matches_step_loop_oracle_bitwise takes 5.8
    # sweeps a step.)
    g = GridSpec(256)
    tg = TimeGrid(k=0.01, N=120)
    law = RadiusLaw(SLOW)
    cfg = SolverConfig(newton_iters=jn)
    v0 = sample_cosine_sum_dsigma(g, [(0.1, m) for m in (2, 3, 4, 5)])
    traj = run(SLOW, tg, g, cfg, v0, law=law, method=method, store_stride=7)
    snaps, S, Q, A, R_nodes = step_loop_oracle(SLOW, tg, g, cfg, v0, law, method)
    stored = stored_steps(traj)
    assert stored == list(range(0, tg.N, 7)) + [tg.N]
    got = np.array([traj.snapshots[n] for n in stored])
    assert np.array_equal(bits(got), bits(snaps[stored]))
    for name, expected in (("S", S), ("Q", Q), ("A", A), ("R_nodes", R_nodes)):
        assert np.array_equal(bits(getattr(traj, name)), bits(expected)), name


def test_step_functions_return_arrays_later_calls_leave_alone():
    ctx = make_ctx(J=16, N=10, params=ModelParams(delta=0.1, alpha=1.5, v_c=1.0, R0=2.0))
    U, V, W = (random_field(16, seed, 0.1) for seed in (1, 2, 3))
    sc = step_coefficients(ctx, 3)
    calls = (
        lambda a, b: cn_step(a, 3, ctx).values,
        lambda a, b: newton_iterate(a, b, b, 3, ctx).values,
        lambda a, b: _newton_step(a.values, np.fft.rfft(a.values), b.values, sc, 3, _Workspace(16))[1],
    )
    for call in calls:
        first = call(U, V)
        kept = first.copy()
        second = call(V, W)
        assert not np.shares_memory(first, second)
        assert np.array_equal(bits(first), bits(kept))


def test_run_snapshots_share_no_memory():
    g = GridSpec(64)
    tg = TimeGrid(k=0.01, N=30)

    def one_run(a, method):
        return run(SLOW, tg, g, SolverConfig(), sample_cosine_sum_dsigma(g, [(a, 2), (a, 3)]), method=method)

    first = one_run(0.1, "newton")
    snaps = [first.snapshots[n] for n in range(tg.N + 1)]
    kept = [v.copy() for v in snaps]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(snaps) for b in snaps[i + 1 :])
    for a, method in ((0.2, "newton"), (0.3, "reference")):
        later = one_run(a, method)
        for n in range(tg.N + 1):
            assert np.array_equal(bits(first.snapshots[n]), bits(kept[n]))
            assert not np.shares_memory(first.snapshots[n], later.snapshots[n])


def test_run_fails_at_first_non_positive_denominator():
    # k passes the existence bound at R0 but not at R(T): the denominator
    # 1/k + mu/2 turns non-positive only once the radius has grown.
    p = ModelParams(delta=0.1, alpha=1.5, v_c=0.001, R0=2.0)
    g = GridSpec(32)
    tg = TimeGrid(k=3.26, N=10)
    law = RadiusLaw(p)
    report = check_admissibility(p, tg, law)
    a = p.alpha - 1.0
    assert report.r0_pass and not report.k_pass
    assert tg.k < 8.0 * p.delta / (a - p.delta / p.R0**2) ** 2

    m = np.arange(g.J // 2 + 1)
    s = (4.0 / g.h**2) * np.sin(m * g.h / 2.0) ** 2

    def min_denom(n):
        R = law.radius_at((n + 0.5) * tg.k)
        mu = (p.delta / R**4) * s * s - ((a + p.delta / R**2) / R**2) * s + a / R**2
        return float(np.min(1.0 / tg.k + 0.5 * mu))

    n0 = next(n for n in range(tg.N) if min_denom(n) <= 0.0)
    assert n0 > 0

    ctx = SchemeContext(p, tg, g, law=law)
    step_coefficients(ctx, n0 - 1)
    with pytest.raises(SolverError) as err:
        step_coefficients(ctx, n0)
    assert err.value.step == n0
    v0 = sample_cosine_sum_dsigma(g, [(0.01, 2)])
    with pytest.raises(SolverError) as err:
        run(p, tg, g, SolverConfig(), v0, law=law, require_admissible=False)
    assert err.value.step == n0


def test_psi_free_first_sweep_equals_generic_sweep():
    # Mirror-symmetric V^n and V^{n-1} make b = V^n + Vhat symmetric, so
    # b_{i+1} = b_{i-1} at i = 0 and J/2 and phi(b, b) has zeros there whose
    # sign follows the stencil sum; the generic sweep adds psi(b, 0), whose
    # zeros may carry the other sign.
    ctx = make_ctx(J=16, N=10, params=ModelParams(delta=0.1, alpha=1.5, v_c=1.0, R0=2.0))
    h, n = ctx.grid.h, 3
    rng = np.random.default_rng(11)

    def mirrored(half):
        return PeriodicField(np.concatenate((half, half[-2:0:-1])))

    Vn = mirrored(-1.0 - rng.random(9))
    Vprev = mirrored(-1.0 - rng.random(9))
    Vhat = extrapolate(Vn, Vprev)
    b = PeriodicField(Vn.values + Vhat.values)
    phi_bb = phi(b, b).values
    assert np.any((phi_bb == 0.0) & np.signbit(phi_bb))
    generic_rhs = psi(b, PeriodicField(Vhat.values - Vhat.values)).values + phi_bb
    assert not np.array_equal(bits(generic_rhs), bits(phi_bb))

    sc = step_coefficients(ctx, n)
    X = np.fft.rfft(Vn.values)
    _, first = _newton_step(Vn.values, X, Vprev.values, sc, 1, _Workspace(16))
    assert np.array_equal(bits(first), bits(newton_iterate(Vn, Vhat, Vhat, n, ctx).values))

    # and the later sweeps are the public ones
    W = Vhat
    for _ in range(3):
        W = newton_iterate(Vn, Vhat, W, n, ctx)
    _, last = _newton_step(Vn.values, X, Vprev.values, sc, 3, _Workspace(16))
    assert np.array_equal(bits(last), bits(W.values))


def mirrored_values(J, rng):
    """A field with V_{-i} = V_i and values in [-2, -1): phi(V, V) is -0.0 at i = 0 and J/2."""
    half = -1.0 - rng.random(J // 2 + 1)
    return np.concatenate((half, half[-2:0:-1]))


@pytest.mark.parametrize("J", [16, 64, 256])
def test_frozen_sweep_equals_midpoint_form_bitwise(J):
    # c_psi phi(V^n + w, V^n + w) against c_phi phi(vq, vq), vq = (V^n + w)/2,
    # for the first step (w = V^n), a reference sweep (w an iterate) and the
    # first Newton sweep (w = Vhat), each solved by the np.fft formula
    ctx = make_ctx(J=J, N=10, params=ModelParams(delta=0.1, alpha=1.5, v_c=1.0, R0=2.0))
    n = 3
    sc = step_coefficients(ctx, n)
    denom, numer = real_rows(ctx, n)
    rng = np.random.default_rng(J)
    r0, r1 = rng.standard_normal(J), rng.standard_normal(J)
    m0, m1 = mirrored_values(J, rng), mirrored_values(J, rng)
    cases = [(r0, r0), (r0, r1), (r0, 2.0 * r0 - r1), (m0, m0), (m0, m1), (m0, 2.0 * m0 - m1)]
    for i, (vn, w) in enumerate(cases):
        ws = _Workspace(J)
        X = np.fft.rfft(vn)
        X_next, v_next = solver._frozen_sweep(vn, w, np.multiply(sc.numer, X, out=ws.base), sc, ws)

        vq = 0.5 * (vn + w)
        nl = c_phi(ctx)[n] * roll_phi(vq, vq)
        if i >= 3:
            assert np.any((nl == 0.0) & np.signbit(nl))
        assert np.array_equal(bits(ws.pb[1:-1]), bits(2.0 * vq))
        assert np.array_equal(bits(ws.rhs), bits(nl))
        nl_hat = np.fft.rfft(nl)
        nl_hat[0] = 0.0
        expected = (numer * X + nl_hat) / denom
        assert np.array_equal(X_next.view(np.int64), expected.view(np.int64))
        assert np.array_equal(bits(v_next), bits(np.fft.irfft(expected, n=J)))


@pytest.mark.parametrize("J", [64, 128, 256, 512, 1024, 2048, 4096])
@pytest.mark.parametrize(
    "params, T",
    [(SLOW, 25.0), (ModelParams(delta=4.0, alpha=1.28, v_c=0.1, R0=60.0), 1.0)],
    ids=["readme", "criterion-3"],
)
def test_psi_coefficient_is_a_quarter_of_phi_coefficient_bitwise(params, T, J):
    # the frozen sweep's c_psi phi(2 vq, 2 vq) is c_phi phi(vq, vq) only if
    # 4 c_psi == c_phi exactly; k = 0.01 on the README model, T/J on criterion 3
    k = 0.01 if params is SLOW else T / J
    ctx = SchemeContext(params, TimeGrid.from_horizon(T, k), GridSpec(J))
    assert np.array_equal(bits(4.0 * ctx.c_psi), bits(c_phi(ctx)))


@pytest.mark.parametrize("stride", [0, -3])
def test_run_rejects_store_stride_below_one(stride):
    g = GridSpec(16)
    v0 = sample_cosine_sum_dsigma(g, [(0.01, 2)])
    with pytest.raises(ValueError, match="every must be >= 1"):
        run(SLOW, TimeGrid(k=0.01, N=10), g, SolverConfig(), v0, store_stride=stride)


def test_run_rejects_a_radius_law_of_other_params():
    # SLOW coefficients on the radii of R0 = 60 would be a run of neither model
    g, tg = GridSpec(16), TimeGrid(k=0.01, N=10)
    other = RadiusLaw(ModelParams(delta=4.0, alpha=1.5, v_c=0.001, R0=60.0))
    with pytest.raises(ValueError, match="radius law"):
        SchemeContext(SLOW, tg, g, law=other)
    v0 = sample_cosine_sum_dsigma(g, [(0.01, 2)])
    with pytest.raises(ValueError, match="radius law"):
        run(SLOW, tg, g, SolverConfig(), v0, law=other)
    assert run(SLOW, tg, g, SolverConfig(), v0, law=RadiusLaw(SLOW)).R_nodes[0] == SLOW.R0


# --- direct pocketfft transforms and complex denominators --------------------


def signed_zero_values(shape, seed):
    """Random values with every 7th entry -0.0 and every 11th from the 3rd +0.0."""
    x = np.random.default_rng(seed).standard_normal(shape)
    x[..., ::7] = -0.0
    x[..., 3::11] = 0.0
    return x


@pytest.mark.parametrize("J", [8, 64, 256, 2048, 4096])
def test_direct_transforms_match_np_fft_bitwise(J):
    x = signed_zero_values(J, J)
    assert np.any((x == 0.0) & np.signbit(x))
    X = _rfft(x, 1.0, out=np.empty(J // 2 + 1, dtype=complex))
    assert np.array_equal(X.view(np.int64), np.fft.rfft(x).view(np.int64))

    Y = X.copy()
    Y.real[::3] = -0.0
    Y.imag[1::4] = -0.0
    inv_J = _Workspace(J).inv_J
    assert inv_J == np.reciprocal(J, dtype=float)
    y = _irfft(Y, inv_J, out=np.empty(J))
    assert np.array_equal(bits(y), bits(np.fft.irfft(Y, n=J)))


@pytest.mark.parametrize("J", [64, 256, 2048])
def test_direct_transforms_match_np_fft_on_rows(J):
    # a (members, J) batch transforms row by row with the bits of single calls
    x = signed_zero_values((5, J), J + 1)
    X = _rfft(x, 1.0, out=np.empty((5, J // 2 + 1), dtype=complex))
    y = _irfft(X, 1.0 / J, out=np.empty((5, J)))
    for i in range(5):
        Xi = np.fft.rfft(x[i])
        assert np.array_equal(X[i].view(np.int64), Xi.view(np.int64))
        assert np.array_equal(bits(y[i]), bits(np.fft.irfft(Xi, n=J)))


def test_direct_rfft_raises_on_overflow_like_np_fft():
    x = np.full(64, 1e308)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            np.fft.rfft(x)
        with pytest.raises(FloatingPointError):
            _rfft(x, 1.0, out=np.empty(33, dtype=complex))


def test_run_calls_the_module_transforms(monkeypatch):
    # _solve and run() read _rfft and _irfft from the module at call time, so
    # a wrapper sees every transform: 1 + 1 + 3 (N - 1) rfft calls with jn = 3.
    calls = {"rfft": 0, "irfft": 0}

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(solver, "_rfft", counted("rfft", _rfft))
    monkeypatch.setattr(solver, "_irfft", counted("irfft", _irfft))
    g, N = GridSpec(32), 6
    run(SLOW, TimeGrid(k=0.01, N=N), g, SolverConfig(newton_iters=3),
        sample_cosine_sum_dsigma(g, [(0.01, 2)]))
    assert calls == {"rfft": 2 + 3 * (N - 1), "irfft": 1 + 3 * (N - 1)}


def test_run_reports_transform_overflow_at_its_step(monkeypatch):
    # the 6th rfft call (after run()'s initial one and the first two steps'
    # four) sweeps step n = 2, so the overflow fails the run at step m = 3
    calls = []

    def overflowing(x, fct, out):
        calls.append(1)
        if len(calls) == 6:
            x = np.full_like(x, 1e308)
        return _rfft(x, fct, out=out)

    monkeypatch.setattr(solver, "_rfft", overflowing)
    g = GridSpec(32)
    with pytest.raises(SolverError, match="floating point failure") as err:
        run(SLOW, TimeGrid(k=0.01, N=6), g, SolverConfig(),
            sample_cosine_sum_dsigma(g, [(0.01, 2)]))
    assert err.value.step == 3


def real_rows(ctx, n):
    """1/k +- mu/2 at step n, from the scalar coefficients of that step."""
    coeffs = LinearOperatorCoefficients(ctx.c4[n], ctx.c2[n], ctx.c0[n])
    half_mu = 0.5 * _symbol(coeffs, ctx.s, ctx.s2)
    inv_k = 1.0 / ctx.tgrid.k
    return inv_k + half_mu, inv_k - half_mu


@pytest.mark.parametrize("J", [64, 1024])
def test_rows_yield_complex_denominators_of_the_real_formulas(J):
    tg = TimeGrid(k=0.01, N=40)
    ctx = SchemeContext(SLOW, tg, GridSpec(J))
    rows = list(ctx.rows(0, tg.N))
    assert len(rows) == tg.N
    for n, row in enumerate(rows):
        for got, expected in zip((row.denom, row.numer), real_rows(ctx, n)):
            assert got.dtype == np.complex128 and got.shape == (J // 2 + 1,)
            assert np.array_equal(bits(got.real), bits(expected))
            assert np.array_equal(bits(got.imag), bits(np.zeros_like(expected)))


def test_rows_check_real_denominators_before_the_cast():
    # the non-positive denominator case of the run test above, through rows()
    p = ModelParams(delta=0.1, alpha=1.5, v_c=0.001, R0=2.0)
    tg = TimeGrid(k=3.26, N=10)
    ctx = SchemeContext(p, tg, GridSpec(32))
    n0 = next(n for n in range(tg.N) if real_rows(ctx, n)[0].min() <= 0.0)
    mode = int(np.argmin(real_rows(ctx, n0)[0]))
    rows = ctx.rows(0, tg.N)
    for _ in range(n0):
        assert next(rows).denom.dtype == np.complex128
    with pytest.raises(SolverError, match=f"at mode {mode}, step {n0};") as err:
        next(rows)
    assert err.value.step == n0


@pytest.mark.parametrize("method, J", [("newton", 256), ("reference", 2048)])
def test_stepping_memory_does_not_grow_with_the_step_count(method, J):
    # the kernels write into one workspace and rows() builds its tables a
    # block of steps at a time, so stepping a run peaks at the same memory for
    # N = 100 and N = 800; a step that kept an array, or tables built for all
    # N steps at once, would add over 1 MB at N = 800
    g = GridSpec(J)
    v0 = sample_cosine_sum_dsigma(g, [(0.1, 2), (0.1, 3)])
    peaks = {}
    for N in (100, 800):
        tracemalloc.start()
        try:
            steps = integrate(SLOW, TimeGrid(k=0.01, N=N), SolverConfig(), v0, method=method)
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for _ in steps:
                pass
            peaks[N] = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    assert abs(peaks[800] - peaks[100]) <= 8192, peaks


def test_setup_memory_peaks_near_what_the_run_holds():
    # SchemeContext solves the radius law a piece of the 2N + 1 half-step
    # times at a time, so setting a run up peaks within 1.5x of the tables it
    # keeps (about 80 B a step); one solve over all times peaked at 3.4x
    g, tg = GridSpec(16), TimeGrid(k=0.01, N=20_000)
    v0 = sample_cosine_sum_dsigma(g, [(0.1, 2), (0.1, 3)])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        steps = integrate(SLOW, tg, SolverConfig(), v0)
        held, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert 70 * tg.N <= held and peak <= 1.5 * held, (held, peak)
    # the pieces give the radii of one solve over all times, bit for bit
    R_all = steps.law.radii(np.arange(2 * tg.N + 1) * (0.5 * tg.k))
    assert np.array_equal(bits(steps.R_nodes), bits(R_all[::2]))


# The step iterator: integrate() yields (m, V^m) and run() consumes it.

DIVERGING = ModelParams(delta=0.1, alpha=1.5, v_c=5.0, R0=1.0)  # admissible; overflows in a few steps


def test_integrate_keeps_numpy_error_state():
    # each integration enters np.errstate between its yields, never across
    # one: blocks open across yields of interleaved runs would be restored
    # out of order and leave overflow raising after both runs are gone
    import gc

    g, tg = GridSpec(32), TimeGrid(k=0.01, N=12)
    v0 = sample_cosine_sum_dsigma(g, [(0.1, 2), (0.1, 3)])
    before = np.geterr()
    a = integrate(SLOW, tg, SolverConfig(), v0)
    b = integrate(SLOW, tg, SolverConfig(), v0, method="reference")
    assert [m for (m, _), _ in zip(a, b)] == list(range(tg.N + 1))
    assert next(b, None) is None  # zip stopped at a's end; b ends after it
    assert np.geterr() == before

    c = integrate(SLOW, tg, SolverConfig(), v0, every=5)
    assert next(c)[0] == 0 and next(c)[0] == 5
    del c
    gc.collect()
    assert np.geterr() == before

    gd = GridSpec(64)
    d = integrate(DIVERGING, TimeGrid(k=0.05, N=1000), SolverConfig(),
                  sample_cosine_sum_dsigma(gd, [(3.0, 2), (3.0, 3)]))
    with pytest.raises(SolverError) as err:
        for _ in d:
            pass
    assert err.value.step is not None
    assert np.geterr() == before


@pytest.mark.parametrize("method", ["newton", "reference"])
@pytest.mark.parametrize("every", [1, 4, 7])
def test_integrate_yields_the_steps_run_stores(method, every):
    # the one step loop: the yielded steps are run()'s snapshots, and S, Q,
    # A and R_nodes are complete, with run()'s bits, when step N is yielded
    g, tg = GridSpec(32), TimeGrid(k=0.01, N=20)
    v0 = sample_cosine_sum_dsigma(g, [(0.1, 2), (0.1, 3)])
    traj = run(SLOW, tg, g, SolverConfig(), v0, method=method, store_stride=every)
    steps = integrate(SLOW, tg, SolverConfig(), v0, method=method, every=every)
    seen = []
    for m, v in steps:
        assert np.array_equal(bits(v), bits(traj.snapshots[m]))
        seen.append(m)
        if m == tg.N:
            break
    assert seen == stored_steps(traj)
    out = steps
    assert not hasattr(out, "snapshots") and out.method == method
    for name in ("S", "Q", "A", "R_nodes"):
        assert np.array_equal(bits(getattr(out, name)), bits(getattr(traj, name))), name


def test_integrate_failures_keep_their_step_index(monkeypatch):
    # an overflow reports m = n + 1, as through run()
    calls = []

    def overflowing(x, fct, out):
        calls.append(1)
        if len(calls) == 6:
            x = np.full_like(x, 1e308)
        return _rfft(x, fct, out=out)

    monkeypatch.setattr(solver, "_rfft", overflowing)
    g = GridSpec(32)
    steps = integrate(SLOW, TimeGrid(k=0.01, N=6), SolverConfig(), sample_cosine_sum_dsigma(g, [(0.01, 2)]))
    assert [next(steps)[0] for _ in range(3)] == [0, 1, 2]
    with pytest.raises(SolverError, match="floating point failure") as err:
        next(steps)
    assert err.value.step == 3


@pytest.mark.parametrize(
    "change, error",
    [
        ({"method": "euler"}, ValueError),
        ({"every": 1.5}, ValueError),
        ({"every": 0}, ValueError),
        ({"every": -2}, ValueError),
        ({"params": replace(SLOW, R0=2.0)}, SolverError),  # R0 below sqrt(delta/(alpha-1))
    ],
)
def test_integrate_rejects_bad_arguments_when_called(change, error):
    # checked by integrate() itself, before any step is asked for
    g = GridSpec(16)
    kwargs = dict(params=SLOW, v0=sample_cosine_sum_dsigma(g, [(0.01, 2)])) | change
    params, v0 = kwargs.pop("params"), kwargs.pop("v0")
    with pytest.raises(error):
        integrate(params, TimeGrid(k=0.01, N=5), SolverConfig(), v0, **kwargs)


@pytest.mark.parametrize("entry", ["integrate"])
def test_nonzero_mean_warning_names_the_callers_file(entry):
    g = GridSpec(16)
    v0 = PeriodicField(0.01 * np.cos(2 * g.sigma) + 1.0)
    with pytest.warns(UserWarning, match="initial mean") as caught:
        integrate(SLOW, TimeGrid(k=0.01, N=3), SolverConfig(), v0)
    assert [w.filename for w in caught] == [__file__]


@pytest.mark.parametrize("J", [16, 64])
def test_integrate_runs_on_the_grid_of_v0(J):
    # integrate() takes no grid: the run's grid is v0's, and its steps are J values
    v0 = sample_cosine_sum_dsigma(GridSpec(J), [(0.01, 2)])
    steps = integrate(SLOW, TimeGrid(k=0.01, N=3), SolverConfig(), v0)
    assert steps.grid == v0.grid == GridSpec(J)
    assert [v.size for _, v in steps] == [J] * 4


def test_a_failed_run_ends_its_iteration():
    # after a SolverError the run is over: a later next() raises
    # StopIteration instead of stepping again from the failed workspace
    gd = GridSpec(64)
    d = integrate(DIVERGING, TimeGrid(k=0.05, N=1000), SolverConfig(),
                  sample_cosine_sum_dsigma(gd, [(3.0, 2), (3.0, 3)]))
    with pytest.raises(SolverError):
        for _ in d:
            pass
    with pytest.raises(StopIteration):
        next(d)
    assert next(d, None) is None


def test_a_dropped_run_is_freed_without_the_cyclic_gc():
    # the run holds nothing that holds it: with the cyclic GC off, dropping
    # an unfinished run frees it at once
    import gc
    import weakref

    g = GridSpec(32)
    enabled = gc.isenabled()
    gc.disable()
    try:
        steps = integrate(SLOW, TimeGrid(k=0.01, N=12), SolverConfig(), sample_cosine_sum_dsigma(g, [(0.1, 2)]))
        assert [next(steps)[0], next(steps)[0]] == [0, 1]
        ref = weakref.ref(steps)
        del steps
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_integrate_takes_only_an_integer_every():
    # a float every is refused when integrate() is called, not by range()
    # at the second step; a NumPy integer is a stride
    g, tg = GridSpec(16), TimeGrid(k=0.01, N=5)
    v0 = sample_cosine_sum_dsigma(g, [(0.01, 2)])
    for every in (2.5, 2.0, np.float64(2.0)):
        with pytest.raises(ValueError, match="every must be >= 1 and an integer"):
            integrate(SLOW, tg, SolverConfig(), v0, every=every)
    assert [m for m, _ in integrate(SLOW, tg, SolverConfig(), v0, every=np.int64(2))] == [0, 2, 4, 5]


# V^0 and the safety paths of the step loop.


@pytest.mark.parametrize("entry", ["run", "integrate"])
def test_nan_initial_data_fails_at_step_0(entry):
    # V^0 is recorded by the loop's own checks: a NaN fails it when called
    g = GridSpec(16)
    values = sample_cosine_sum_dsigma(g, [(0.01, 2)]).values.copy()
    values[3] = np.nan
    with pytest.raises(SolverError, match="not finite") as err:
        if entry == "run":
            run(SLOW, TimeGrid(k=0.01, N=3), g, SolverConfig(), PeriodicField(values))
        else:
            integrate(SLOW, TimeGrid(k=0.01, N=3), SolverConfig(), PeriodicField(values))
    assert err.value.step == 0


def test_reference_step_that_does_not_converge_fails_at_its_step():
    # the diverging model at amplitude 1: the first reference step's fixed
    # point sweeps do not settle within 50 sweeps
    g = GridSpec(64)
    v0 = sample_cosine_sum_dsigma(g, [(1.0, 2), (1.0, 3)])
    with pytest.raises(SolverError, match="did not converge in 50 sweeps") as err:
        run(DIVERGING, TimeGrid(k=0.05, N=4), g, SolverConfig(), v0, method="reference")
    assert err.value.step == 0


def test_non_finite_step_without_a_floating_point_error_fails_at_its_step(monkeypatch):
    # a transform that writes NaN raises no FloatingPointError; the loop's
    # finiteness check of Q stops the run at the step that made it
    def nan_irfft(X, fct, out):
        out[:] = np.nan
        return out

    g = GridSpec(32)
    steps = integrate(SLOW, TimeGrid(k=0.01, N=4), SolverConfig(), sample_cosine_sum_dsigma(g, [(0.01, 2)]))
    assert next(steps)[0] == 0
    monkeypatch.setattr(solver, "_irfft", nan_irfft)
    with pytest.raises(SolverError, match="not finite") as err:
        next(steps)
    assert err.value.step == 1


@pytest.mark.parametrize("method", ["newton", "reference"])
@pytest.mark.parametrize("entry", ["run", "integrate"])
def test_runs_time_themselves(entry, method):
    # Integration.solve_s: the seconds of construction and of every step
    g, tg = GridSpec(32), TimeGrid(k=0.01, N=5)
    args = (SLOW, tg, SolverConfig(), sample_cosine_sum_dsigma(g, [(0.01, 2)]))
    if entry == "run":
        traj = run(*args[:2], g, *args[2:], method=method)
    else:
        steps = integrate(*args, method=method)
        constructed = steps.solve_s
        assert constructed > 0
        assert [m for m, _ in steps] == list(range(tg.N + 1))
        traj = steps
        assert traj.solve_s > constructed
    assert traj.solve_s > 0 and math.isfinite(traj.solve_s)


def test_non_finite_reference_step_without_a_floating_point_error_fails_at_its_step(monkeypatch):
    # a NaN sweep ends the reference sweeps, so the loop reports the step as
    # not finite instead of running 50 sweeps and reporting non-convergence
    def nan_irfft(X, fct, out):
        out[:] = np.nan
        return out

    g = GridSpec(32)
    v0 = sample_cosine_sum_dsigma(g, [(0.01, 2)])
    steps = integrate(SLOW, TimeGrid(k=0.01, N=4), SolverConfig(), v0, method="reference")
    assert next(steps)[0] == 0
    monkeypatch.setattr(solver, "_irfft", nan_irfft)
    with pytest.raises(SolverError, match="not finite") as err:
        next(steps)
    assert err.value.step == 1


CRITERION_3 = ModelParams(delta=4.0, alpha=1.28, v_c=0.1, R0=60.0)


@pytest.mark.parametrize("every", [1, 7])
@pytest.mark.parametrize("method", ["newton", "reference"])
@pytest.mark.parametrize(
    "params, k, N, pairs",
    [
        (SLOW, 0.01, 60, [(0.1, m) for m in (2, 3, 4, 5)]),
        (CRITERION_3, 1.0 / 64, 64, [(0.5, 2)]),
    ],
    ids=["README", "criterion 3"],
)
def test_integrate_accumulates_A_up_to_each_yielded_step(params, k, N, pairs, method, every):
    # A[:m+1] is final when V^m is yielded: the running sum has the bits of
    # the closed formula over the finished run, a cumulative trapezoid sum
    g, tg = GridSpec(64), TimeGrid(k=k, N=N)
    steps = integrate(params, tg, SolverConfig(), sample_cosine_sum_dsigma(g, pairs), method=method, every=every)
    traj = steps
    prefixes = {m: traj.A[: m + 1].copy() for m, _ in steps}
    assert list(prefixes) == list(range(0, N, every)) + [N]
    q = traj.Q / (traj.law.rate(traj.R_nodes) * traj.R_nodes**2)
    A = np.concatenate(([0.0], np.cumsum(0.5 * k * (q[:-1] + q[1:]))))
    for m, prefix in prefixes.items():
        assert np.array_equal(bits(prefix), bits(A[: m + 1])), m


def test_linear_first_step_sets_the_newton_gap():
    # On the v_c = 1 config the Newton run's distance from the converged
    # reference at T is the linear first step's error: j_n = 2 and 3 give
    # the same gap, and a first step solved to convergence (the reference
    # step), followed by the same j_n sweeps, lowers it by far more than 100x.
    params = ModelParams(delta=4.0, alpha=1.5, v_c=1.0, R0=6.0)
    J, T = 256, 5.0
    g, tg = GridSpec(J), TimeGrid.from_horizon(T, T / (4 * J))
    law = RadiusLaw(params)
    v0 = sample_cosine_sum_dsigma(g, [(0.5, 2), (0.5, 3)])
    truth = final(run(params, tg, g, SolverConfig(), v0, law=law, method="reference", store_stride=tg.N))

    def gap(v):
        return norm_h(PeriodicField(v.values - truth.values))

    paper, converged = {}, {}
    for jn in (2, 3):
        cfg = SolverConfig(newton_iters=jn)
        paper[jn] = gap(final(run(params, tg, g, cfg, v0, law=law, store_stride=tg.N)))
        ctx = SchemeContext(params, tg, g, law=law)
        prev, vn = v0, cn_step(v0, 0, ctx)
        for n in range(1, tg.N):
            vhat = w = extrapolate(vn, prev)
            for _ in range(jn):
                w = newton_iterate(vn, vhat, w, n, ctx)
            prev, vn = vn, w
        converged[jn] = gap(vn)
    assert abs(paper[2] - paper[3]) <= 0.01 * paper[3], paper
    for jn in (2, 3):
        assert converged[jn] * 100 <= paper[jn], (jn, paper, converged)


def _count_frozen_sweeps(monkeypatch):
    calls = []
    sweep = solver._frozen_sweep

    def counted(*args):
        calls.append(None)
        return sweep(*args)

    monkeypatch.setattr(solver, "_frozen_sweep", counted)
    return calls


@pytest.mark.parametrize("method", ["newton", "reference"])
def test_reference_sweeps_count_every_frozen_sweep_of_a_reference_run(monkeypatch, method):
    calls = _count_frozen_sweeps(monkeypatch)
    g, tg = GridSpec(64), TimeGrid(k=0.01, N=40)
    traj = run(SLOW, tg, g, SolverConfig(), sample_cosine_sum_dsigma(g, [(0.1, 2), (0.1, 3)]), method=method)
    if method == "reference":
        assert tg.N <= traj.reference_sweeps == len(calls)
    else:
        assert traj.reference_sweeps == 0 and len(calls) == tg.N  # a Newton step's first sweep is frozen


V_C_1 = ModelParams(delta=4.0, alpha=1.5, v_c=1.0, R0=6.0)


@pytest.mark.parametrize(
    "params, J, k, T, pairs",
    [
        (SLOW, 256, 0.01, 5.0, [(0.1, m) for m in (2, 3, 4, 5)]),
        (V_C_1, 256, 5.0 / 1024, 5.0, [(0.5, 2), (0.5, 3)]),
        (CRITERION_3, 256, 1.0 / 256, 1.0, [(0.5, 2)]),
    ],
    ids=["README", "v_c = 1", "criterion 3"],
)
def test_predictor_started_reference_matches_the_vn_started_one(monkeypatch, params, J, k, T, pairs):
    # The old reference run, kept here: every step's sweeps start at V^n, as
    # cn_step's do.  Started at the quadratic predictor instead, the reference
    # run stays within 10 reference_tol of it at every step, in fewer sweeps.
    g, tg, cfg = GridSpec(J), TimeGrid.from_horizon(T, k), SolverConfig()
    ctx = SchemeContext(params, tg, g)
    v0 = sample_cosine_sum_dsigma(g, pairs)
    calls = _count_frozen_sweeps(monkeypatch)
    old = [v0]
    for n in range(tg.N):
        old.append(cn_step(old[n], n, ctx))
    old_sweeps = len(calls)
    steps = integrate(params, tg, cfg, v0, method="reference")
    for m, v in steps:
        gap = norm_h(PeriodicField(v - old[m].values))
        assert gap <= 10 * cfg.reference_tol * max(1.0, norm_h(PeriodicField(v))), m
    assert steps.reference_sweeps == len(calls) - old_sweeps < old_sweeps


def test_moved_entry_points_drive_the_production_kernels(monkeypatch):
    # tests/oracles.py holds the step entry points and stencil wrappers; each
    # reaches the kernels the step loop runs, looked up in their modules at
    # call time, and no copy of them
    import ksring.operators as operators
    import oracles

    reached = set()

    def count(holder, name):
        real = getattr(holder, name)

        def wrapper(*args, **kwargs):
            reached.add(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(holder, name, wrapper)

    for name in ("_frozen_sweep", "_newton_step", "_reference_step", "_rfft", "_irfft"):
        count(solver, name)
    count(SchemeContext, "rows")
    for name in ("_phi_values", "psi_coefficients", "_psi_apply"):
        count(operators, name)

    g = GridSpec(32)
    ctx = SchemeContext(SLOW, TimeGrid(k=0.01, N=4), g)
    v0 = sample_cosine_sum_dsigma(g, [(0.1, 2), (0.1, 3)])
    v1 = oracles.newton_first_step(v0, ctx)
    transforms = {"rows", "_rfft", "_irfft"}
    cases = {
        "cn_step": (lambda: oracles.cn_step(v0, 0, ctx), {"_reference_step", "_frozen_sweep"} | transforms),
        "newton_first_step": (lambda: oracles.newton_first_step(v0, ctx), {"_newton_step", "_frozen_sweep"} | transforms),
        "newton_iterate": (
            lambda: oracles.newton_iterate(v1, oracles.extrapolate(v1, v0), v1, 1, ctx),
            {"_frozen_sweep", "psi_coefficients"} | transforms,
        ),
        "solve_linear_cn": (lambda: oracles.solve_linear_cn(v0, 0, ctx), transforms),
        "cn_residual": (lambda: oracles.cn_residual(v0, v1, 0, ctx), {"_phi_values"}),
        "phi": (lambda: oracles.phi(v0, v1), {"_phi_values"}),
        "psi": (lambda: oracles.psi(v0, v1), {"psi_coefficients", "_psi_apply"}),
    }
    for name, (call, kernels) in cases.items():
        reached.clear()
        call()
        assert reached == kernels, name
