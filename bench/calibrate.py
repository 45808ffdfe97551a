"""A fixed piece of work that uses no ksring: the benchmark's yardstick.

    python3 bench/calibrate.py OUT.csv

A fresh interpreter imports NumPy, steps a small periodic array through a
stencil and an FFT in a Python loop, and writes a CSV of formatted floats:
the same kinds of work as a ksring CLI invocation, with nothing of the
program in it.  run.py starts it once in every round and divides a run's
mean times by its mean time, which cancels much of a shared machine's
changes of speed between runs.
"""

from __future__ import annotations

import sys

import numpy as np


def main(out: str) -> None:
    x = np.cos(np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False))
    for _ in range(400):
        lap = np.roll(x, 1) - 2.0 * x + np.roll(x, -1)
        x = np.fft.irfft(np.fft.rfft(x + 1e-3 * lap), n=x.size)
    rows = np.outer(np.arange(5000.0), x[:3])
    with open(out, "w") as f:
        f.write("\n".join(",".join(repr(float(v)) for v in row) for row in rows))


if __name__ == "__main__":
    main(sys.argv[1])
