"""The package surface: what `import ksring` exports is what the program and
its documented library use runs on."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import ksring
import oracles

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    assert len(set(ksring.__all__)) == len(ksring.__all__)
    for name in ksring.__all__:
        assert getattr(ksring, name) is not None, name
    namespace = {}
    exec("from ksring import *", namespace)
    assert set(ksring.__all__) <= set(namespace)


def test_readme_library_example_imports_exported_names():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^from ksring import \(([^)]*)\)", readme, flags=re.M)
    assert blocks, "README has no `from ksring import (...)` example"
    names = {n.strip() for block in blocks for n in block.split(",") if n.strip()}
    assert names and names <= set(ksring.__all__), names - set(ksring.__all__)


def test_benchmark_setup_probe_uses_exported_names():
    tree = ast.parse((ROOT / "bench" / "setup_probe.py").read_text())
    names = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "ksring"
    }
    assert names and names <= set(ksring.__all__), names - set(ksring.__all__)


def test_step_wrappers_and_test_oracles_are_module_level_only():
    # the test entry points and oracles live in tests/oracles.py, and in no
    # ksring module or class: src/ holds only what the commands run
    moved = {
        "field": ("_check_same_grid", "_lap_values", "inner_h", "seminorm_1h", "seminorm_2h", "zeros"),
        "operators": ("_apply_L_values", "apply_L", "bilaplacian_h", "laplacian_h", "modal_symbol", "phi", "psi",
                      "symbol_array"),
        "radius": ("FrozenRadiusLaw", "rate_at"),
        "reconstruct": ("cumulative_v", "interp_v", "v_squared_integral"),
        "solver": ("_fresh_step", "cn_residual", "cn_step", "extrapolate", "final", "mean_step_factor",
                   "newton_first_step", "newton_iterate", "run", "solve_linear_cn", "step_coefficients",
                   "stored_steps"),
        "stability": ("_check_reality", "_frozen_rhs", "galerkin_rhs", "integrate_modes", "lambda_m",
                      "modes_from_cosines"),
    }
    package = Path(ksring.__file__).parent
    modules = [ksring] + [
        importlib.import_module(f"ksring.{p.stem}") for p in package.glob("*.py") if p.stem != "__init__"
    ]
    holders = modules + [
        obj for m in modules for obj in vars(m).values() if inspect.isclass(obj) and obj.__module__ == m.__name__
    ]
    for module, names in moved.items():
        assert module in {m.__name__.rpartition(".")[2] for m in modules}, module
        for name in names:
            assert callable(getattr(oracles, name)), name
            assert not [h for h in holders if hasattr(h, name)], name
    assert not hasattr(ksring.Integration, "has")
    assert sum(map(len, moved.values())) == 37


def test_integrate_is_the_one_way_to_run_the_scheme():
    # the package stores no steps: a finished run has no attribute for them,
    # and the suite has no option to keep its runs' trajectories
    from ksring.experiments import wavenumber_suite

    g = ksring.GridSpec(16)
    v0 = ksring.sample_cosine_sum_dsigma(g, [(0.01, 2)])
    steps = ksring.integrate(ksring.ModelParams(4.0, 1.5, 0.001, 6.0), ksring.TimeGrid(k=0.01, N=3), g,
                             ksring.SolverConfig(), v0)
    assert [m for m, _ in steps] == [0, 1, 2, 3]
    assert "snapshots" not in vars(steps)
    assert "keep_trajectories" not in inspect.signature(wavenumber_suite).parameters
