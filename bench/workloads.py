"""The three benchmark workloads: their inputs, CLI arguments and set-up.

Every input is fixed here; nothing is drawn at random, so the seed a run is
given is recorded but changes nothing.  The checkers in checks.py read the
model and grid from these specs, never from the program's own echo of them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

EMIT = ("v", "u", "curve", "means", "spectrum")


@dataclass(frozen=True)
class RunSpec:
    """One `ksring run` or `ksring eoc` configuration."""

    delta: float
    alpha: float
    v_c: float
    R0: float
    J: int
    k: float
    T: float
    amplitudes: tuple[float, ...]
    modes: tuple[int, ...]
    stride: int = 1

    @property
    def N(self) -> int:
        return round(self.T / self.k)

    def ini(self) -> str:
        def csv(xs):
            return ", ".join(repr(x) for x in xs)

        return (
            f"[model]\ndelta = {self.delta!r}\nalpha = {self.alpha!r}\nv_c = {self.v_c!r}\n\n"
            f"[grid]\nJ = {self.J}\nk = {self.k!r}\nT = {self.T!r}\n\n"
            f"[initial]\nR0 = {self.R0!r}\namplitudes = {csv(self.amplitudes)}\n"
            f"modes = {csv(self.modes)}\n\n"
            f"[output]\nstride = {self.stride}\nemit = {', '.join(EMIT)}\n"
        )


# The README config: the everyday `ksring run`.
README_RUN = RunSpec(
    delta=4.0, alpha=1.5, v_c=0.001, R0=6.0, J=256, k=0.01, T=100.0,
    amplitudes=(0.1, 0.1, 0.1, 0.1), modes=(2, 3, 4, 5), stride=100,
)

# The everyday run: the README config cut to T = 25 (2 500 steps), so that
# a run of the benchmark holds enough operations for a steady median.
EVERYDAY_RUN = replace(README_RUN, T=25.0)

# The README model on a fine grid with every step written: output-bound.
DENSE_OUTPUT = replace(README_RUN, J=2048, T=0.5, stride=1)

# The criterion-3 convergence config; `eoc` derives k = T/J at every level.
EOC_LADDER = RunSpec(
    delta=4.0, alpha=1.28, v_c=0.1, R0=60.0, J=64, k=1.0 / 64, T=1.0,
    amplitudes=(0.5,), modes=(2,),
)
EOC_LEVELS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    spec: RunSpec
    command: tuple[str, ...]  # ksring CLI arguments; "{config}" names the config file

    def cli_args(self, config: str, out: str) -> list[str]:
        return [a.format(config=config) for a in self.command] + ["--out", out]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("readme_run", EVERYDAY_RUN, ("run", "--config", "{config}")),
        Workload("eoc_ladder", EOC_LADDER, ("eoc", "--config", "{config}", "--levels", str(EOC_LEVELS))),
        Workload("dense_output", DENSE_OUTPUT, ("run", "--config", "{config}")),
    )
}
