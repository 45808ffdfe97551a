"""Output checks that recompute what they compare against.

Nothing here imports ksring or reads a stored copy of an earlier output.
Each check takes the workload's own inputs (workloads.py) and the files one
CLI invocation wrote, recomputes the quantity from the model or from a
property of the scheme, and returns a list of problems; an empty list is a
pass.  `corruptions` makes deliberately broken copies of a real output, which
every check must reject (the checker self-test in run.py).  CHECKS maps each
workload to the loader of its output directory and its check.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import EOC_LEVELS, RunSpec

TWO_PI = 2.0 * math.pi
EPS = float(np.finfo(float).eps)
RADIUS_TOL = 1e-8
MEAN_TOL = 1e-10
EOC_RANGE = (1.7, 2.3)
M_MAX = 32  # modes scanned for the unstable set, as in the spectral report
# The CN defect may reach this many roundoff units of the step operator's
# row sum times max|V|; measured at most 1.8 on dense_output.
DEFECT_ULPS = 16.0


# --- independent oracles -------------------------------------------------


def radius_rk4(spec: RunSpec, substeps: int = 2) -> np.ndarray:
    """R at t = j k / substeps, j = 0..substeps*N, by classical RK4 of
    dR/dt = v_c + (alpha - 1)/R."""
    a = spec.alpha - 1.0
    dt = spec.k / substeps

    def f(R):
        return spec.v_c + a / R

    R = spec.R0
    out = [R]
    for _ in range(substeps * spec.N):
        k1 = f(R)
        k2 = f(R + 0.5 * dt * k1)
        k3 = f(R + 0.5 * dt * k2)
        k4 = f(R + dt * k3)
        R += dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        out.append(R)
    return np.array(out)


def growth_rates(spec: RunSpec, R: float) -> np.ndarray:
    """lambda_m at radius R for m = 1..M_MAX (index m-1); lambda_1 = 0."""
    m2 = np.arange(1, M_MAX + 1, dtype=float) ** 2
    a = spec.alpha - 1.0
    lam = -spec.delta * m2 * m2 / R**4 + (m2 / R**2) * (a + spec.delta / R**2) - a / R**2
    lam[0] = 0.0
    return lam


def expected_selection(spec: RunSpec) -> tuple[int, set[int]]:
    """(fastest mode at R0, unstable set at R0)."""
    lam = growth_rates(spec, spec.R0)
    return 1 + int(np.argmax(lam)), {m for m in range(1, M_MAX + 1) if lam[m - 1] > 0}


def selection_problem(spec: RunSpec, measured: int) -> str | None:
    fastest, unstable = expected_selection(spec)
    if fastest in spec.modes and measured != fastest:
        return f"R0={spec.R0:g}: dominant mode {measured}, fastest seeded mode is {fastest}"
    if fastest not in spec.modes and measured not in unstable:
        return f"R0={spec.R0:g}: dominant mode {measured} not in unstable set {sorted(unstable)}"
    return None


def _sh(w: np.ndarray, s: int) -> np.ndarray:
    return np.roll(w, s, axis=-1)


def _phi(w: np.ndarray) -> np.ndarray:
    return (_sh(w, 1) + w + _sh(w, -1)) * (_sh(w, -1) - _sh(w, 1))


def cn_defect(spec: RunSpec, V: np.ndarray, R_half: np.ndarray) -> np.ndarray:
    """max_i |defect| of each consecutive pair of rows of V, divided by the
    roundoff floor eps * max|V| * (1/k + (16 c4/h^4 + 4 c2/h^2 + c0)/2).

    Pair 0 is held to the linear first step (quadratic term at V^0), every
    later pair to the Crank-Nicolson midpoint equation."""
    h = TWO_PI / spec.J
    a = spec.alpha - 1.0
    R2 = (R_half * R_half)[:, None]
    c4, c2, c0 = spec.delta / (R2 * R2), (a + spec.delta / R2) / R2, a / R2
    mid = 0.5 * (V[:-1] + V[1:])
    d2 = (_sh(mid, 1) - 2.0 * mid + _sh(mid, -1)) / h**2
    d4 = (_sh(mid, 2) - 4.0 * _sh(mid, 1) + 6.0 * mid - 4.0 * _sh(mid, -1) + _sh(mid, -2)) / h**4
    quad = _phi(mid)
    quad[0] = _phi(V[0])
    defect = (V[1:] - V[:-1]) / spec.k + c4 * d4 + c2 * d2 + c0 * mid - (spec.v_c / (6.0 * h * R2)) * quad
    row_sum = 1.0 / spec.k + 0.5 * (16.0 * c4 / h**4 + 4.0 * c2 / h**2 + c0)
    floor = EPS * row_sum[:, 0] * np.maximum(np.abs(V[:-1]).max(axis=1), np.abs(V[1:]).max(axis=1))
    return np.abs(defect).max(axis=1) / floor


# --- ksring run ----------------------------------------------------------


@dataclass
class RunOutput:
    means: np.ndarray             # rows n, t, S_n, I_tilde
    snapshots: dict[int, np.ndarray]  # n -> columns sigma, v, u
    curves: dict[int, np.ndarray]     # n -> columns x, y (J + 1 rows)
    report: dict


def _csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def load_run(out: Path) -> RunOutput:
    return RunOutput(
        means=_csv(out / "means.csv"),
        snapshots={int(p.stem.split("_")[1]): _csv(p) for p in out.glob("snapshot_*.csv")},
        curves={int(p.stem.split("_")[1]): _csv(p) for p in out.glob("curve_*.csv")},
        report=json.loads((out / "report.json").read_text()),
    )


def check_run(spec: RunSpec, o: RunOutput) -> list[str]:
    problems: list[str] = []
    N, J, k, h = spec.N, spec.J, spec.k, TWO_PI / spec.J
    a = spec.alpha - 1.0
    R = radius_rk4(spec)
    R_nodes, R_half = R[0::2], R[1::2]

    expected = set(range(0, N + 1, spec.stride)) | {N}
    if set(o.snapshots) != expected or set(o.curves) != expected:
        return [f"stored steps {sorted(o.snapshots)[:5]}..., curves {len(o.curves)}, expected {len(expected)}"]
    if o.means.shape != (N + 1, 4) or not np.array_equal(o.means[:, 0], np.arange(N + 1)):
        return [f"means.csv has shape {o.means.shape}, expected {(N + 1, 4)}"]

    # Mean: the discrete mean of v stays zero.
    S_max = float(np.max(np.abs(o.means[:, 2])))
    if not S_max <= MEAN_TOL:
        problems.append(f"max|S_n| = {S_max:.3e} > {MEAN_TOL:g}")

    # Radius: R_T in the report and every curve against the RK4 radius.
    reported = [o.report["admissibility"]["bounds"]["R_T"], o.report["spectral"]["R_T"]]
    for R_T in reported:
        if not abs(R_T - R_nodes[N]) <= RADIUS_TOL:
            problems.append(f"R_T {R_T!r} vs RK4 {float(R_nodes[N])!r}")
    sigma = np.arange(J) * h
    I = o.means[:, 3]
    for n in sorted(expected):
        snap, curve = o.snapshots[n], o.curves[n]
        if snap.shape != (J, 3) or curve.shape != (J + 1, 2):
            problems.append(f"step {n}: snapshot {snap.shape}, curve {curve.shape}")
            continue
        s, v, u = snap.T
        if not np.allclose(s, sigma, rtol=0.0, atol=1e-14):
            problems.append(f"step {n}: sigma column is not the grid")
        r = np.hypot(curve[:J, 0], curve[:J, 1])
        dev = float(np.max(np.abs(r - u - R_nodes[n])))
        if not dev <= RADIUS_TOL:
            problems.append(f"step {n}: |sqrt(x^2+y^2) - u - R| = {dev:.3e}")
        angle = float(np.max(np.abs(np.arctan2(curve[:J, 1], curve[:J, 0]) % TWO_PI - sigma)))
        if not (angle <= 1e-12 and np.array_equal(curve[J], curve[0])):
            problems.append(f"step {n}: curve points out of order or not closed")

        # Height: u steps by the trapezoid of v, and the exact mean of the
        # piecewise quadratic height is I_tilde.
        scale = max(1.0, float(np.max(np.abs(u))), float(np.max(np.abs(v))))
        dev = float(np.max(np.abs(np.diff(u) - 0.5 * h * (v[:-1] + v[1:]))))
        if not dev <= 1e-12 * scale:
            problems.append(f"step {n}: u_(i+1) - u_i differs from the trapezoid of v by {dev:.3e}")
        mean_u = float(np.sum(h * u + h * h * (2.0 * v + np.roll(v, -1)) / 6.0)) / TWO_PI
        if not abs(mean_u - I[n]) <= 1e-12 * scale:
            problems.append(f"step {n}: mean of u {mean_u!r} vs I_tilde {float(I[n])!r}")

        # Mean-height law at interior stored steps, criterion 9's bound.
        if 0 < n < N:
            Rn = R_nodes[n]
            q = (h / 3.0) * float(np.sum(v * v + v * np.roll(v, -1) + np.roll(v, -1) ** 2))
            dI = (I[n + 1] - I[n - 1]) / (2.0 * k)
            rhs = -(a / Rn**2) * I[n] + spec.v_c * q / (4.0 * math.pi * Rn**2)
            if not abs(dI - rhs) <= 10.0 * k * k * max(1.0, abs(dI), abs(rhs)):
                problems.append(f"step {n}: mean-height law residual {abs(dI - rhs):.3e}")

    # Selection: the dominant mode of the final height.
    u_T = o.snapshots[N][:, 2]
    measured = 1 + int(np.argmax(np.abs(np.fft.rfft(u_T))[1:]))
    if o.report["spectral"]["measured_dominant"] != measured:
        problems.append(f"report names dominant mode {o.report['spectral']['measured_dominant']}, u(T) has {measured}")
    p = selection_problem(spec, measured)
    if p:
        problems.append(p)

    # Crank-Nicolson defect, wherever consecutive steps are stored.
    if spec.stride == 1:
        V = np.stack([o.snapshots[n][:, 1] for n in range(N + 1)])
        ratio = cn_defect(spec, V, R_half)
        worst = int(np.argmax(ratio))
        if not ratio[worst] <= DEFECT_ULPS:
            problems.append(f"CN defect {ratio[worst]:.3g} roundoff units at step {worst}")
    return problems


# --- ksring eoc ----------------------------------------------------------


@dataclass
class EocOutput:
    table: np.ndarray  # rows J, k, err_v, err_u, err_v_newton, newton_gap
    report: dict


def load_eoc(out: Path) -> EocOutput:
    return EocOutput(_csv(out / "eoc.csv"), json.loads((out / "eoc.json").read_text()))


def check_eoc(spec: RunSpec, o: EocOutput) -> list[str]:
    problems: list[str] = []
    Js = [spec.J * 2**l for l in range(EOC_LEVELS)]
    t = o.table
    if t.shape != (EOC_LEVELS, 6) or list(t[:, 0]) != Js:
        return [f"eoc.csv has shape {t.shape}, J column {t[:, 0].tolist()}"]
    if not np.allclose(t[:, 1], spec.T / t[:, 0], rtol=1e-15, atol=0.0):
        problems.append("k column is not T/J")
    eoc = o.report["eoc"]
    for col, name in ((2, "eoc_v"), (3, "eoc_u"), (4, "eoc_v_newton")):
        err = t[:, col]
        if not np.all(np.diff(err) < 0):
            problems.append(f"{name}: errors do not decrease: {err.tolist()}")
        orders = np.log2(err[:-1] / err[1:])
        lo, hi = EOC_RANGE
        if not np.all((orders >= lo) & (orders <= hi)):
            problems.append(f"{name}: orders {orders.tolist()} outside [{lo}, {hi}]")
        if not np.allclose(eoc[name], orders, rtol=1e-12, atol=0.0):
            problems.append(f"{name}: eoc.json {eoc[name]} vs log2 ratios of eoc.csv {orders.tolist()}")
    gap_ok = t[:, 5] <= t[:, 2]
    if not np.all(gap_ok):
        problems.append(f"newton_gap exceeds err_v at J = {t[~gap_ok, 0].tolist()}")
    return problems


# --- checker self-test ---------------------------------------------------


def corruptions(name: str, output) -> list[tuple[str, object]]:
    """Broken copies of a real output, each of which its check must reject."""
    if name in ("readme_run", "dense_output"):
        flipped = copy.deepcopy(output)
        n = sorted(flipped.snapshots)[len(flipped.snapshots) // 2]
        v = flipped.snapshots[n][:, 1]
        i = int(np.argmax(np.abs(v)))
        v[i] = -v[i]
        off = copy.deepcopy(output)
        off.report["spectral"]["R_T"] += 1e-6
        wrong = copy.deepcopy(output)
        wrong.report["spectral"]["measured_dominant"] += 1
        return [("one flipped v value", flipped), ("R_T off by 1e-6", off), ("wrong dominant mode", wrong)]
    if name == "eoc_ladder":
        first = copy.deepcopy(output)
        halving = 0.5 ** np.arange(len(first.table))
        for col in (2, 3, 4):
            first.table[:, col] = first.table[0, col] * halving
        first.report["eoc"] = {
            key: [1.0] * (len(halving) - 1) for key in ("eoc_v", "eoc_u", "eoc_v_newton")
        }
        return [("ladder with order 1", first)]
    raise ValueError(f"unknown workload {name!r}")


CHECKS = {
    "readme_run": (load_run, check_run),
    "dense_output": (load_run, check_run),
    "eoc_ladder": (load_eoc, check_eoc),
}
