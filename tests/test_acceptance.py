"""Acceptance gate: nine numbered criteria, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Each criterion states its tolerance and a wall-clock budget; the budgets are
asserted, so a pathologically slow environment fails loudly rather than
silently dragging.

Criteria 2, 3, 4 and 8 each have a planted-defect self-test: the defect is
monkeypatched into the solver in process, the criterion's own check is run
on it and must reject it, and the self-test prints that check's numbers.
"""

import math
import time
import warnings

import numpy as np
import pytest

import ksring.solver as solver
from ksring.config import RunConfig
from ksring.experiments import eoc_ladder, wavenumber_suite
from ksring.field import GridSpec, PeriodicField, norm_h, sample_cosine_sum_dsigma
from ksring.operators import LinearOperatorCoefficients
from ksring.params import ModelParams, SolverConfig, TimeGrid
from ksring.radius import RadiusLaw
from ksring.reconstruct import mean_I_path
from ksring.stability import critical_radius
from oracles import (
    FrozenRadiusLaw,
    bilaplacian_h,
    inner_h,
    integrate_modes,
    lambda_m,
    laplacian_h,
    mean_step_factor,
    modes_from_cosines,
    phi,
    psi,
    run,
    seminorm_1h,
    seminorm_2h,
)

TWO_PI = 2.0 * math.pi
SLOW = ModelParams(delta=4.0, alpha=1.5, v_c=0.001, R0=6.0)
FAST = ModelParams(delta=4.0, alpha=1.28, v_c=0.1, R0=60.0)
FIG_MODES = ((0.1, 2), (0.1, 3), (0.1, 4), (0.1, 5))


def verdict(num, name, ok, detail):
    print(f"criterion {num} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} [{name}]: {detail}"


def rejects(num, name, defect, ok, detail):
    """The self-test verdict: criterion num's own check must fail on the defect."""
    print(f"criterion {num} [{name}] self-test, {defect}: {'PASS' if ok else 'REJECTED'} ({detail})")
    assert not ok, f"criterion {num} [{name}] passes the planted defect {defect}: {detail}"


# Planted defects, each patched into ksring.solver for one self-test.


def _one_sided_phi(pv, pw, out, tmp):
    """_phi_values with pv[2:] read as pv[1:-1]: (V_{i-1} + 2 V_i)(W_{i+1} - W_{i-1})."""
    out = np.add(pv[:-2], pv[1:-1], out=out)
    out += pv[1:-1]
    out *= np.subtract(pw[2:], pw[:-2], out=tmp)
    return out


class _NodeRadiusContext(solver.SchemeContext):
    """Step n's c4, c2, c0 and c_psi at the node radius R_n instead of R_{n+1/2}:
    a scheme that is first order in time."""

    def __init__(self, params, tgrid, grid, law=None):
        super().__init__(params, tgrid, grid, law)
        R = self.R_nodes[:-1]
        self.c4, self.c2, self.c0 = LinearOperatorCoefficients.at_radius(params, R)
        self.c_psi = params.v_c / (24.0 * grid.h * R * R)


class _CPsiOffContext(solver.SchemeContext):
    """c_psi = v_c / (24.5 h R^2), 2 % off the scheme's v_c / (24 h R^2)."""

    def __init__(self, params, tgrid, grid, law=None):
        super().__init__(params, tgrid, grid, law)
        self.c_psi = params.v_c / (24.5 * grid.h * self.R_half * self.R_half)


def ladder():
    """Criteria 3 and 4's eoc ladder and its seconds."""
    cfg = RunConfig(
        params=FAST,
        grid=GridSpec(64),
        tgrid=TimeGrid.from_horizon(1.0, 1.0 / 64),
        modes=((0.5, 2),),
        I0=0.0,
        solver=SolverConfig(newton_iters=3, reference_tol=1e-13),
        v0_method="analytic",
        out_dir=None,
        stride=1,
        emit=("v",),
    )
    t0 = time.perf_counter()
    report = eoc_ladder(cfg, levels=3)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ladder_result():
    return ladder()


@pytest.fixture(scope="module")
def one_sided_ladder_result():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_phi_values", _one_sided_phi)
        return ladder()


@pytest.fixture(scope="module")
def suite_result():
    # each row gets the trajectory of its run, recorded as the suite starts it
    import ksring.experiments

    started = []
    real_integrate = ksring.experiments.integrate

    def recording_integrate(*args, **kwargs):
        started.append(real_integrate(*args, **kwargs))
        return started[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ksring.experiments, "integrate", recording_integrate)
        t0 = time.perf_counter()
        rows = wavenumber_suite(J=256, k=0.01, T=100.0, solver=SolverConfig(newton_iters=3))
        elapsed = time.perf_counter() - t0
    for row, steps in zip(rows, started, strict=True):
        row["trajectory"] = steps
    return rows, elapsed


def test_criterion_1_summation_identities():
    # nine discrete identities/inequalities, 100 random triples per grid size,
    # equalities to 1e-12 relative, inequalities strictly; budget 5 s
    t0 = time.perf_counter()
    worst = 0.0

    def close(lhs, rhs):
        nonlocal worst
        dev = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
        worst = max(worst, dev)
        return dev <= 1e-12

    ok = True
    for J in (8, 16, 64):
        h = TWO_PI / J
        rng = np.random.default_rng(J)
        for _ in range(100):
            v, w, u = (rng.standard_normal(J) for _ in range(3))
            V, W, U = (PeriodicField(x) for x in (v, w, u))
            vp, vm = np.roll(v, -1), np.roll(v, 1)
            wp, wm = np.roll(w, -1), np.roll(w, 1)
            up = np.roll(u, -1)

            ok &= close(
                inner_h(phi(V, W), W),
                -h * float(np.sum((vp - np.roll(v, 2)) * w * wm)),
            )
            ok &= close(
                inner_h(phi(V, V), W),
                -h * float(np.sum((v * v + v * vp + vp * vp) * (wp - w))),
            )
            ok &= close(
                inner_h(psi(V, W), U),
                -h * float(np.sum((v * (wp + 2 * w) + vp * (2 * wp + w)) * (up - u))),
            )
            ok &= abs(inner_h(phi(V, V), V)) <= 1e-12 * max(1.0, norm_h(V) ** 3)
            d = v - w
            D = PeriodicField(d)
            split = psi(W, D).values + phi(D, D).values
            lhs = phi(V, V).values - phi(W, W).values
            ok &= bool(
                np.max(np.abs(lhs - split)) <= 1e-12 * max(1.0, np.max(np.abs(lhs)))
            )
            ok &= close(-inner_h(laplacian_h(V), V), seminorm_1h(V) ** 2)
            ok &= close(inner_h(bilaplacian_h(V), V), seminorm_2h(V) ** 2)
            ok &= seminorm_1h(V) ** 2 < norm_h(V) * seminorm_2h(V)
            for eta in (0.1, 1.0, 10.0):
                ok &= (
                    seminorm_1h(V) ** 2
                    < eta * seminorm_2h(V) ** 2 + norm_h(V) ** 2 / (4 * eta)
                )
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    verdict(
        1, "summation identities", ok,
        f"worst equality deviation {worst:.2e} over 300 triples, {elapsed:.2f} s",
    )


def criterion_2():
    # measured discrete mean vs the closed one step recursion; budget 10 s
    t0 = time.perf_counter()
    J, k, N = 256, 0.01, 1000
    g = GridSpec(J)
    law = RadiusLaw(SLOW)
    tg = TimeGrid(k=k, N=N)
    base = sample_cosine_sum_dsigma(g, FIG_MODES)
    v0 = PeriodicField(base.values + 1.0 / TWO_PI)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        traj = run(SLOW, tg, g, SolverConfig(), v0, law=law, store_stride=N)
    S_closed = traj.S[0]
    worst = 0.0
    for n in range(N):
        S_closed *= mean_step_factor(k, law.radius_at((n + 0.5) * k), SLOW.alpha)
        worst = max(worst, abs(traj.S[n + 1] - S_closed) / abs(S_closed))
    zero = run(SLOW, tg, g, SolverConfig(), base, law=law, store_stride=N)
    zero_max = float(np.max(np.abs(zero.S)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and zero_max <= 1e-10 and elapsed < 10.0
    return ok, (
        f"worst relative deviation {worst:.2e} over 1000 steps, "
        f"zero-mean max {zero_max:.2e}, {elapsed:.2f} s"
    )


def test_criterion_2_mean_recursion():
    verdict(2, "mean recursion", *criterion_2())


def test_criterion_2_rejects_coefficients_at_the_node_radius(monkeypatch):
    monkeypatch.setattr(solver, "SchemeContext", _NodeRadiusContext)
    rejects(2, "mean recursion", "coefficients at the node radius", *criterion_2())


def criterion_3(ladder_result):
    # simultaneous (h, k) halving gives order 2 for v and u; budget 60 s
    report, elapsed = ladder_result
    rates = report.eoc_v + report.eoc_u
    ok = all(1.7 <= r <= 2.3 for r in rates) and elapsed < 60.0
    return ok, (
        "eoc_v " + ", ".join(f"{r:.3f}" for r in report.eoc_v)
        + "; eoc_u " + ", ".join(f"{r:.3f}" for r in report.eoc_u)
        + f"; {elapsed:.2f} s"
    )


def test_criterion_3_convergence_order(ladder_result):
    verdict(3, "convergence order", *criterion_3(ladder_result))


def test_criterion_3_rejects_a_one_sided_stencil(one_sided_ladder_result):
    rejects(3, "convergence order", "one-sided stencil", *criterion_3(one_sided_ladder_result))


def criterion_4(ladder_result):
    # three linearization sweeps track the converged scheme below the level
    # error, and keep order 2 themselves; budget twice criterion 3's
    report, elapsed = ladder_result
    gaps_ok = all(lv.newton_gap <= lv.err_v for lv in report.levels)
    rates_ok = all(1.7 <= r <= 2.3 for r in report.eoc_v_newton)
    ok = gaps_ok and rates_ok and elapsed < 120.0
    return ok, (
        "gap/err " + ", ".join(
            f"{lv.newton_gap:.1e}/{lv.err_v:.1e}" for lv in report.levels
        )
        + "; eoc " + ", ".join(f"{r:.3f}" for r in report.eoc_v_newton)
    )


def test_criterion_4_newton_fidelity(ladder_result):
    verdict(4, "newton fidelity", *criterion_4(ladder_result))


def test_criterion_4_rejects_a_one_sided_stencil(one_sided_ladder_result):
    rejects(4, "newton fidelity", "one-sided stencil", *criterion_4(one_sided_ladder_result))


def test_criterion_5_radius_law():
    # closed-form radius vs an RK4 oracle, plus strict monotonicity; budget 1 s
    t0 = time.perf_counter()
    worst = 0.0
    for params in (SLOW, FAST):
        law = RadiusLaw(params)
        dt = 2e-3
        R = params.R0
        t = 0.0
        marks = {1.0, 10.0, 100.0}
        for _ in range(50_000):
            f1 = params.v_c + (params.alpha - 1.0) / R
            f2 = params.v_c + (params.alpha - 1.0) / (R + 0.5 * dt * f1)
            f3 = params.v_c + (params.alpha - 1.0) / (R + 0.5 * dt * f2)
            f4 = params.v_c + (params.alpha - 1.0) / (R + dt * f3)
            R += dt * (f1 + 2 * f2 + 2 * f3 + f4) / 6.0
            t += dt
            tr = round(t, 9)
            if tr in marks:
                worst = max(worst, abs(law.radius_at(tr) - R))
    law = RadiusLaw(SLOW)
    rs = [law.radius_at(t) for t in np.linspace(0.0, 100.0, 1000)]
    monotone = all(b > a for a, b in zip(rs, rs[1:]))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and monotone and elapsed < 1.0
    verdict(
        5, "radius law", ok,
        f"max |closed form - RK4| {worst:.2e}, monotone {monotone}, {elapsed:.2f} s",
    )


def test_criterion_6_spectral_zeros():
    # exact zero at m = 1, neutral-curve zeros, critical radius; budget 1 s
    t0 = time.perf_counter()
    one_exact = all(
        lambda_m(1, R, SLOW) == 0.0 for R in (3.0, 6.0, 17.31, 120.0, 4096.0)
    )
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(2, 13))
        R = float(rng.uniform(1.0, 40.0))
        alpha = float(rng.uniform(1.05, 2.5))
        p = ModelParams(
            delta=(alpha - 1.0) * R * R / (m * m), alpha=alpha, v_c=0.001, R0=6.0
        )
        worst = max(worst, abs(lambda_m(m, R, p)))
    r_star_dev = abs(critical_radius(SLOW) - 2.0 * math.sqrt(8.0))
    elapsed = time.perf_counter() - t0
    ok = one_exact and worst <= 1e-13 and r_star_dev <= 1e-14 and elapsed < 1.0
    verdict(
        6, "spectral zeros", ok,
        f"lambda_1 exact {one_exact}, worst neutral |lambda| {worst:.2e}, "
        f"R_star deviation {r_star_dev:.2e}",
    )


def test_criterion_7_wavenumber_selection(suite_result):
    # the expanding circle picks the fastest seeded unstable mode; budget 5 min
    rows, elapsed = suite_result
    checks = []
    first = rows[0]
    checks.append(first["unstable_at_R0"] == [2])
    checks.append(first["measured_dominant"] == 2)
    for row in rows[1:]:
        checks.append(row["measured_dominant"] in row["unstable_at_R0"])
        if row["predicted_seeded"]:
            checks.append(row["measured_dominant"] == row["predicted_dominant"])
    ok = all(checks) and elapsed < 300.0
    measured = ", ".join(
        f"R0={r['R0']:g}: {r['measured_dominant']}" for r in rows
    )
    verdict(7, "wavenumber selection", ok, f"{measured}; {elapsed:.1f} s")


def criterion_8():
    # frozen-radius finite differences vs the truncated mode system: every
    # amplitude to 2% relative above a 1e-15 roundoff floor; budget 30 s
    t0 = time.perf_counter()
    J, k, T, M = 1024, 0.01, 5.0, 16
    g = GridSpec(J)
    law = FrozenRadiusLaw(SLOW)
    traj = run(
        SLOW,
        TimeGrid.from_horizon(T, k),
        g,
        SolverConfig(),
        sample_cosine_sum_dsigma(g, FIG_MODES),
        law=law,
        store_stride=100,
    )
    times, path = integrate_modes(
        modes_from_cosines(FIG_MODES, M), SLOW.R0, SLOW, T=T, dt=1e-3, record_every=1000
    )
    ok = True
    worst_rel = 0.0
    amp_max = 0.0
    for j, t in enumerate(times):
        if t == 0.0:
            continue
        n = round(t / k)
        vhat = np.fft.rfft(traj.snapshots[n]) / J
        gal = path[j]
        for m in range(1, M + 1):
            fd = abs(vhat[m]) / m
            ga = abs(gal[M + m])
            amp_max = max(amp_max, fd, ga)
            dev = abs(fd - ga)
            if dev > max(0.02 * ga, 1e-15):
                ok = False
            if max(fd, ga) > 1e-15:
                worst_rel = max(worst_rel, dev / max(ga, 1e-300))
    elapsed = time.perf_counter() - t0
    ok = ok and amp_max < 0.2 and elapsed < 30.0
    return ok, (
        f"worst relative deviation {worst_rel:.2e} above floor, "
        f"max amplitude {amp_max:.3f}, {elapsed:.2f} s"
    )


def test_criterion_8_galerkin_cross_check():
    verdict(8, "mode system cross-check", *criterion_8())


def test_criterion_8_rejects_c_psi_off_by_2_percent(monkeypatch):
    monkeypatch.setattr(solver, "SchemeContext", _CPsiOffContext)
    rejects(8, "mode system cross-check", "c_psi off by 2 %", *criterion_8())


def test_criterion_9_mean_height_ode(suite_result):
    # central-difference residual of the mean height law along the R0 = 6 run;
    # budget shared with criterion 7
    rows, _ = suite_result
    traj = rows[0]["trajectory"]
    law = traj.law
    k = traj.tgrid.k
    N = traj.tgrid.N
    I = mean_I_path(traj, 0.0)
    a = traj.params.alpha - 1.0
    v_c = traj.params.v_c
    worst = 0.0
    for n in range(1, N):
        R = traj.R_nodes[n]
        dI = (I[n + 1] - I[n - 1]) / (2 * k)
        rhs = -(a / R**2) * I[n] + v_c * traj.Q[n] / (4 * math.pi * R**2)
        scale = max(1.0, abs(dI), abs(rhs))
        worst = max(worst, abs(dI - rhs) / scale)
    allowed = 10.0 * k * k
    ok = worst <= allowed
    verdict(
        9, "mean height law", ok,
        f"worst residual/scale {worst:.2e}, allowed {allowed:.1e}",
    )
