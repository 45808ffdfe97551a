"""The package surface: what `import ksring` exports is what the program and
its documented library use runs on."""

import ast
import re
from pathlib import Path

import ksring

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
    # the test entry points stay importable from their own modules
    moved = {
        "field": ("inner_h", "seminorm_1h", "seminorm_2h"),
        "operators": ("apply_L", "bilaplacian_h", "laplacian_h", "symbol_array"),
        "radius": ("FrozenRadiusLaw",),
        "reconstruct": ("cumulative_v", "interp_v", "v_squared_integral"),
        "solver": ("cn_residual", "cn_step", "extrapolate", "mean_step_factor",
                   "newton_first_step", "newton_iterate", "solve_linear_cn"),
        "stability": ("integrate_modes", "modes_from_cosines"),
    }
    for module, names in moved.items():
        for name in names:
            assert name not in ksring.__all__, name
            assert callable(getattr(getattr(ksring, module), name)), f"{module}.{name}"
    assert sum(map(len, moved.values())) == 20
