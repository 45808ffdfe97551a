"""Set-up of one workload in a fresh interpreter, and nothing more.

    python3 bench/setup_probe.py WORKLOAD CONFIG

imports ksring and prepares the workload's inputs up to the first time step:
config parsing and validation, the admissibility check and the initial data.
run.py times the whole process, from start to exit, as setup_s.
"""

from __future__ import annotations

import sys

from workloads import EOC_LEVELS


def main(name: str, config: str) -> None:
    import ksring
    from ksring.cli import load_config

    cfg = load_config(config)
    law = ksring.RadiusLaw(cfg.params)
    if name == "eoc_ladder":
        Js = [cfg.grid.J * 2**level for level in range(EOC_LEVELS)]
        finest = ksring.TimeGrid.from_horizon(cfg.tgrid.T, cfg.tgrid.T / Js[-1])
        ksring.check_admissibility(cfg.params, finest, law)
        for J in Js + [8 * Js[-1]]:  # the levels and the converged reference
            ksring.sample_cosine_sum_dsigma(ksring.GridSpec(J), cfg.modes)
    else:
        ksring.check_admissibility(cfg.params, cfg.tgrid, law)
        cfg.initial_v()


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
