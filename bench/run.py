"""ksring benchmark: one workload per invocation, every operation checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs installing, the CLI
runs from src/.  One operation is one CLI invocation
(`python3 -m ksring.cli ...`) in a fresh process.  A run repeats whole
rounds until S seconds have passed.  Every operation's files are checked
against computations made apart from the program (checks.py), and the first
operation's files are also broken on purpose to show that the checks
reject them.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  Each round is a
calibration (calibrate.py, a fixed piece of work without ksring), a set-up
probe (setup_probe.py: a fresh interpreter that only imports ksring and
prepares the inputs) and an operation; one more calibration closes the run.
The run reports the mean set-up and operation times, each scaled by
CAL_REF_S over the mean calibration time, and the median peak RSS.
--trace 1 alternates untraced and traced operations (tracing.py) and
reports the per-layer metrics.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.

The inputs have no random part: --seed is recorded and changes nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracing
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# About the calibration's wall time on the machine where the bounds were set,
# at its faster speed (README.md, "Noise"): scaled times read as seconds there.
CAL_REF_S = 0.2
BUDGET_S = 170.0  # an invocation must end within 180 s


@dataclass
class Proc:
    wall_s: float
    rss_mb: float
    rc: int


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def timed(cmd: list[str], log: Path, timeout: float) -> Proc:
    """Runs cmd to its exit through launch.py: its wall time from start to
    exit and its peak RSS.  Past the timeout it is stopped and reads as
    exit code -9."""
    result = log.with_suffix(".json")
    result.unlink(missing_ok=True)
    launcher = subprocess.Popen(
        [sys.executable, str(BENCH / "launch.py"), str(result), str(log)] + cmd, cwd=ROOT, env=_env()
    )
    t0 = time.perf_counter()
    try:
        launcher.wait(timeout=max(timeout, 1.0))
    except BaseException:  # the timeout, or this process being stopped
        launcher.terminate()  # launch.py kills the command and waits for it
        launcher.wait()
        if sys.exc_info()[0] is not subprocess.TimeoutExpired:
            raise
    if not result.exists():
        return Proc(time.perf_counter() - t0, 0.0, -9)
    return Proc(**json.loads(result.read_text()))


def dir_mb(path: Path) -> float:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / 1e6


class ProbeFailed(RuntimeError):
    """The set-up probe did not run: the program is missing or broken."""


class Session:
    """One invocation: its work directory, its measurements and its tallies."""

    def __init__(self, workload, trace: bool, began: float):
        self.workload, self.trace, self.began = workload, trace, began
        self.load, self.check = checks.CHECKS[workload.name]
        self.work = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config = self.work / "config.ini"
        self.config.write_text(workload.spec.ini())
        self.correct, self.attempted, self.failed = True, 0, 0
        self.cals: list[float] = []
        self.setups: list[float] = []
        self.ops: list[Proc] = []
        self.traced: list[tuple[Proc, dict, dict, float]] = []  # proc, layers, per-step, output MB

    def remaining(self) -> float:
        return BUDGET_S - (time.perf_counter() - self.began)

    def probe(self, script: str, *args: str) -> float:
        """Wall time of one run of a benchmark script that must not fail."""
        log = self.work / "probe.log"
        proc = timed([sys.executable, str(BENCH / script), *args], log, 60.0)
        if proc.rc != 0:
            sys.stderr.write(log.read_text())
            raise ProbeFailed(f"{script} exited {proc.rc}; is src/ksring there?")
        return proc.wall_s

    def calibrate(self) -> None:
        self.cals.append(self.probe("calibrate.py", str(self.work / "calibration.csv")))

    def set_up(self) -> None:
        self.setups.append(self.probe("setup_probe.py", self.workload.name, str(self.config)))

    def operate(self, with_trace: bool) -> Proc:
        """One CLI invocation, its output check, and the self-test on the first."""
        self.attempted += 1
        n = self.attempted
        out, log, spans = self.work / f"op{n}", self.work / f"op{n}.log", self.work / f"spans{n}.npz"
        cli = self.workload.cli_args(str(self.config), str(out))
        if with_trace:
            cmd = [sys.executable, str(BENCH / "tracing.py"), str(spans)] + cli
        else:
            cmd = [sys.executable, "-m", "ksring.cli"] + cli
        proc = timed(cmd, log, self.remaining())
        status = (
            f"op {n}{' traced' if with_trace else ''}: wall {proc.wall_s:.3f} s, "
            f"peak RSS {proc.rss_mb:.1f} MB, exit {proc.rc}"
        )
        if proc.rc != 0:
            self.failed += 1
            print(f"{status}, FAILED:\n{log.read_text()}")
            return proc
        try:
            output = self.load(out)
            problems = self.check(self.workload.spec, output)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
            output, problems = None, [f"unreadable output: {e!r}"]
        print(f"{status}, output check {'FAILED' if problems else 'passed'}")
        for p in problems[:10]:
            print(f"    {p}")
        self.correct &= not problems
        if output is not None and not self.ops and not self.traced:
            self.correct &= self_test(self.workload, output, self.check)
        if with_trace:
            layers, per_step = tracing.layer_metrics(spans)
            self.traced.append((proc, layers, per_step, dir_mb(out)))
        else:
            self.ops.append(proc)
        shutil.rmtree(out)
        spans.unlink(missing_ok=True)
        return proc

    def measure(self, seconds: float) -> None:
        """Whole rounds until `seconds` have passed: a calibration, a set-up
        and an operation, or with tracing an untraced and a traced
        operation."""
        if self.trace:
            self.set_up()  # stops the run at once where ksring is missing
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or not self.attempted:
            round_start = time.perf_counter()
            if self.trace:
                self.operate(False)
                self.operate(True)
            else:
                self.calibrate()
                self.set_up()
                print(f"calibration {self.cals[-1]:.3f} s, set-up {self.setups[-1]:.3f} s")
                self.operate(False)
            if self.remaining() < 1.5 * (time.perf_counter() - round_start):
                print(f"stopping early: another round would overrun the {BUDGET_S:g} s budget")
                break
        if not self.trace:
            self.calibrate()
            print(f"calibration {self.cals[-1]:.3f} s")

    def metrics(self) -> dict[str, float]:
        if self.trace:
            return layer_report(self.traced, self.ops)
        # Means, not medians: one operation runs either fast or about 1.6 times
        # slower, and a median jumps between the two (README.md, "Noise").
        cal = statistics.mean(self.cals)
        wall, setup = statistics.mean(p.wall_s for p in self.ops), statistics.mean(self.setups)
        metrics = {
            "wall_s": wall * CAL_REF_S / cal,
            "setup_s": setup * CAL_REF_S / cal,
            "peak_rss_mb": statistics.median(p.rss_mb for p in self.ops),
        }
        n = len(self.ops)
        print(f"calibration  {cal:.4f} s   mean of {len(self.cals)}; times below are scaled by {CAL_REF_S:g} s / {cal:.4f} s")
        print(f"wall_s       {metrics['wall_s']:.4f} s   mean of {n} operations ({wall:.4f} s unscaled)")
        print(f"setup_s      {metrics['setup_s']:.4f} s   mean of {len(self.setups)} set-ups ({setup:.4f} s unscaled)")
        print(f"peak_rss_mb  {metrics['peak_rss_mb']:.2f} MB   median of {n} operations")
        return metrics


def main(argv: list[str] | None = None) -> int:
    began = time.perf_counter()
    # SIGTERM unwinds like an exception, so the running command is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    print(
        f"ksring benchmark: {args.workload}, seed {args.seed} (recorded; the inputs have no "
        f"random part), {args.seconds:g} s of rounds, trace {'on' if args.trace else 'off'}"
    )
    session = Session(WORKLOADS[args.workload], bool(args.trace), began)
    try:
        session.measure(args.seconds)
        if not session.ops or (session.trace and not session.traced):
            print("error: no operation completed", file=sys.stderr)
            return 1
        metrics = session.metrics()
    except ProbeFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(session.work, ignore_errors=True)
        try:
            session.work.parent.rmdir()
        except OSError:  # another run is using it
            pass
    print(
        f"attempted {session.attempted}, failed {session.failed}, "
        f"outputs {'correct' if session.correct else 'NOT correct'}"
    )
    if set(metrics) != set(units):
        print(f"error: measured {sorted(metrics)}, declared {sorted(units)}", file=sys.stderr)
        return 1
    result = {
        "correct": bool(session.correct),
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def self_test(workload, output, check) -> bool:
    """Every corrupted copy of a real output must fail its check."""
    corrupted = checks.corruptions(workload.name, output)
    passed = [label for label, bad in corrupted if not check(workload.spec, bad)]
    print(f"checker self-test: {len(corrupted) - len(passed)} of {len(corrupted)} corrupted copies rejected")
    for label in passed:
        print(f"    the check accepted a corrupted copy: {label}")
    return not passed


def layer_report(traced, untraced: list[Proc]) -> dict[str, float]:
    """Medians over the traced operations; counts repeat exactly between them."""
    names = traced[0][1].keys()
    metrics = {name: statistics.median(t[1][name] for t in traced) for name in names}
    for name in names:
        timing = name.endswith(("_s", ".s")) or ".us_per_step." in name
        if not timing and len({t[1][name] for t in traced}) > 1:
            print(f"warning: {name} differs between traced operations")
    metrics["cli.output_mb"] = statistics.median(t[3] for t in traced)
    metrics["trace.overhead_s"] = statistics.median(t[0].wall_s for t in traced) - statistics.median(
        p.wall_s for p in untraced
    )
    for name, value in metrics.items():
        print(f"{name:36s} {value:.6g}")
    per_step = traced[0][2]
    for (method, J), _ in per_step.items():
        us = statistics.median(t[2][(method, J)] for t in traced)
        print(f"us per step, {method:9s} J = {J:5d}: {us:9.1f}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
