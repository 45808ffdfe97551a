"""Traced ksring CLI invocation and the per-layer metrics drawn from it.

    python3 bench/tracing.py SPANS.npz <ksring CLI arguments>

wraps the functions named in TARGETS from outside the package (no file under
src/ changes), runs `ksring.cli.main` on the arguments and writes every span
to SPANS.npz when the command ends.  A span is (name, start, end, parent);
spans stay in memory, in flat arrays, until then.  COUNTERS only count calls.
A target that no longer exists after a refactor is reported with zero calls.

`layer_metrics` reads such a file.  Solver-internal layers (operators, fft,
radius, field, step coefficients) count only spans inside `solver.run`, so
that their per-step figures are per time step; the numpy.fft calls of the
spectral report, for example, are not solver work.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

TARGETS = (
    # span name, module, attribute ("Class.method" for methods)
    ("cli.load_config", "ksring.cli", "load_config"),
    ("cli.write_csv", "ksring.cli", "write_csv"),
    ("solver.run", "ksring.solver", "run"),
    ("solver.step_coefficients", "ksring.solver", "SchemeContext.step_coefficients"),
    ("operators.phi", "ksring.operators", "_phi_values"),
    ("operators.psi", "ksring.operators", "_psi_values"),
    ("fft.rfft", "numpy.fft", "rfft"),
    ("fft.irfft", "numpy.fft", "irfft"),
    ("radius.radius_at", "ksring.radius", "RadiusLaw.radius_at"),
    ("field.q_integral", "ksring.field", "pw_linear_square_integral"),
    ("reconstruct.reconstruct_u", "ksring.reconstruct", "reconstruct_u"),
    ("reconstruct.curve_points", "ksring.reconstruct", "curve_points"),
    ("reconstruct.mean_I_path", "ksring.reconstruct", "mean_I_path"),
    ("stability.spectral_report", "ksring.stability", "spectral_report"),
    ("stability.measured_dominant_mode", "ksring.stability", "measured_dominant_mode"),
)
COUNTERS = (("radius.implicit", "ksring.radius", "RadiusLaw._implicit"),)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.kind = array("i")
        self.parent = array("i")
        self.depth = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: dict[str, int] = {}
        self.runs: list[dict] = []  # one entry per solver.run call
        self.missing: list[str] = []

    def span(self, name: str, fn, on_return=None):
        kind = len(self.names)
        self.names.append(name)
        kinds, parents, depths, starts, ends = self.kind, self.parent, self.depth, self.start, self.end
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            kinds.append(kind)
            parents.append(stack[-1])
            depths.append(len(stack) - 1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if on_return is not None:
                on_return(i, result)
            return result

        return traced

    def counter(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def record_run(self, i: int, traj) -> None:
        tgrid, grid = getattr(traj, "tgrid", None), getattr(traj, "grid", None)
        snapshots = getattr(traj, "snapshots", {})
        self.runs.append(
            {
                "span": i,
                "method": str(getattr(traj, "method", "unknown")),
                "J": int(getattr(grid, "J", 0)),
                "N": int(getattr(tgrid, "N", 0)),
                "snapshot_bytes": int(sum(getattr(a, "nbytes", 0) for a in snapshots.values())),
            }
        )

    def dump(self, path: str) -> None:
        import numpy as np

        meta = {"names": self.names, "counts": self.counts, "runs": self.runs, "missing": self.missing}
        np.savez(
            path,
            kind=np.frombuffer(self.kind, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            depth=np.frombuffer(self.depth, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            meta=np.array(json.dumps(meta)),
        )


def _resolve(module: str, attr: str):
    """(owner, leaf name, function) or None when the target is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = vars(owner).get(leaf)
    return None if fn is None else (owner, leaf, fn)


def install(tracer: Tracer) -> None:
    """Replaces each target with its wrapper, wherever a ksring module holds it."""
    targets = [(name, m, a, False) for name, m, a in TARGETS] + [(name, m, a, True) for name, m, a in COUNTERS]
    for name, module, attr, count_only in targets:
        found = _resolve(module, attr)
        if found is None:
            tracer.missing.append(name)
            continue
        owner, leaf, fn = found
        if count_only:
            wrapped = tracer.counter(name, fn)
        else:
            wrapped = tracer.span(name, fn, tracer.record_run if name == "solver.run" else None)
        setattr(owner, leaf, wrapped)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "ksring":
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import ksring.cli

    tracer = Tracer()
    install(tracer)
    try:
        return ksring.cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


# --- analysis --------------------------------------------------------------


def layer_metrics(path) -> tuple[dict[str, float], dict[tuple[str, int], float]]:
    """Per-layer metrics of one traced invocation, and the microseconds per
    step of its solver.run calls for each (method, J)."""
    import numpy as np

    with np.load(path) as z:
        kind, parent, depth, start, end = (z[k] for k in ("kind", "parent", "depth", "start", "end"))
        meta = json.loads(str(z["meta"]))
    names, counts, runs = meta["names"], meta["counts"], meta["runs"]
    if meta["missing"]:
        print(f"warning: no longer in ksring, reported as zero calls: {', '.join(meta['missing'])}")
    dur = end - start
    kid = {n: i for i, n in enumerate(names)}
    layers = sorted({n.split(".")[0] for n in names})
    span_layer = np.array([layers.index(n.split(".")[0]) for n in names], dtype=np.int64)[kind]

    # Ancestry, one depth level at a time (a parent is always one level up):
    # the enclosing solver.run span, and the set of layers above each span.
    run_kind = kid.get("solver.run", -1)
    run_of = np.full(kind.size, -1)
    above = np.zeros(kind.size, dtype=np.int64)
    for d in range(1, int(depth.max(initial=0)) + 1):
        sel = np.flatnonzero(depth == d)
        p = parent[sel]
        run_of[sel] = np.where(kind[p] == run_kind, p, run_of[p])
        above[sel] = above[p] | (np.int64(1) << span_layer[p])
    in_run = run_of >= 0
    outermost = ((above >> span_layer) & 1) == 0  # no enclosing span of the same layer
    has_parent = parent >= 0
    self_time = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=kind.size)
    reference_run = np.zeros(kind.size, dtype=bool)
    reference_run[[r["span"] for r in runs if r["method"] == "reference"]] = True
    in_reference = in_run & reference_run[run_of]

    def mask(*span_names, where=None):
        m = np.isin(kind, [kid[n] for n in span_names if n in kid])
        return m if where is None else m & where

    def calls(*span_names, where=None) -> int:
        return int(np.count_nonzero(mask(*span_names, where=where)))

    def secs(*span_names, where=None) -> float:
        return float(dur[mask(*span_names, where=where)].sum())

    def layer_secs(layer: str) -> float:
        return secs(*(n for n in names if n.split(".")[0] == layer), where=outermost)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def us_per_step(**match) -> float:
        chosen = [r for r in runs if all(r[k] == v for k, v in match.items())]
        return 1e6 * ratio(sum(float(dur[r["span"]]) for r in chosen), sum(r["N"] for r in chosen))

    reference_steps = sum(r["N"] for r in runs if r["method"] == "reference")
    all_steps = sum(r["N"] for r in runs)

    metrics = {
        "cli.load_config_s": secs("cli.load_config"),
        "cli.write_csv_calls": calls("cli.write_csv"),
        "cli.write_csv_s": secs("cli.write_csv"),
        "solver.run_calls": calls("solver.run"),
        "solver.steps": all_steps,
        "solver.run_s": secs("solver.run"),
        "solver.run_self_s": float(self_time[mask("solver.run")].sum()),
        "solver.step_coefficients_s": secs("solver.step_coefficients", where=in_run),
        "solver.us_per_step.newton": us_per_step(method="newton"),
        "solver.us_per_step.reference": us_per_step(method="reference"),
        "solver.reference_sweeps_per_step": ratio(calls("operators.phi", where=in_reference), reference_steps),
        "solver.snapshot_mb": sum(r["snapshot_bytes"] for r in runs) / 1e6,
        "operators.phi_calls_per_step": ratio(calls("operators.phi", where=in_run), all_steps),
        "operators.psi_calls_per_step": ratio(calls("operators.psi", where=in_run), all_steps),
        "operators.stencil_s": secs("operators.phi", "operators.psi", where=in_run),
        "fft.calls_per_step": ratio(calls("fft.rfft", "fft.irfft", where=in_run), all_steps),
        "fft.s": secs("fft.rfft", "fft.irfft", where=in_run),
        "radius.radius_at_calls_per_step": ratio(calls("radius.radius_at", where=in_run), all_steps),
        "radius.implicit_evals_per_call": ratio(counts.get("radius.implicit", 0), calls("radius.radius_at")),
        "radius.s": secs("radius.radius_at", where=in_run),
        "field.q_integral_s": secs("field.q_integral", where=in_run),
        "reconstruct.reconstruct_u_calls": calls("reconstruct.reconstruct_u"),
        "reconstruct.s": layer_secs("reconstruct"),
        "stability.s": layer_secs("stability"),
    }
    by_grid = sorted({(r["method"], r["J"]) for r in runs})
    return metrics, {(m, J): us_per_step(method=m, J=J) for m, J in by_grid}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
