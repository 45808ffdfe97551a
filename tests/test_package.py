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


def test_field_is_the_one_path_to_the_transforms():
    # ksring.field alone imports NumPy's private pocketfft ufuncs, and no
    # module uses np.fft: one transform, checked bitwise against np.fft by
    # the tests.  It scans the imported package, so an installed one too.
    importers, fft_uses = set(), set()
    for path in sorted(Path(ksring.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "fft" and isinstance(node.value, ast.Name):
                fft_uses.add(path.name)  # np.fft.rfft, numpy.fft.irfft, ...
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                base = f"{node.module}." if isinstance(node, ast.ImportFrom) else ""
                modules = {base + a.name for a in node.names} | {getattr(node, "module", None) or ""}
                if "numpy.fft._pocketfft_umath" in modules:
                    importers.add(path.name)
                elif any(m.startswith("numpy.fft") for m in modules):
                    fft_uses.add(path.name)
    assert importers == {"field.py"}
    assert fft_uses == set()


def _functions(node: ast.AST, prefix: str = "", in_class: bool = False):
    """(name qualified by class and enclosing function, def, is a method) of
    every function under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child, in_class
            yield from _functions(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, f"{prefix}{child.name}.", True)
        else:
            yield from _functions(child, prefix, in_class)


def dead_defaults(package: Path) -> dict[str, list[str]]:
    """module.function to the defaulted parameters that no call in the
    package omits, for each function whose owner (the module-level function
    or class that holds it) is not in __all__.  Calls match by name: f(...),
    obj.f(...) and, for __init__, Cls(...); a call with *args or **kwargs
    may omit any parameter."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    exported = {
        name
        for node in trees["__init__"].body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["__all__"]
        for name in ast.literal_eval(node.value)
    }
    assert exported
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append(node)
    dead = {}
    for module, tree in trees.items():
        for qualname, fn, method in _functions(tree):
            if qualname.split(".")[0] in exported:
                continue
            a = fn.args
            positional = a.posonlyargs + a.args
            defaulted = {p.arg for p in positional[len(positional) - len(a.defaults):]}
            defaulted |= {p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None}
            if method and not any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list):
                positional = positional[1:]  # self or cls
            callee = qualname.split(".")[-2] if fn.name == "__init__" else fn.name
            omitted = set()
            for call in calls.get(callee, []):
                if any(isinstance(x, ast.Starred) for x in call.args) or any(k.arg is None for k in call.keywords):
                    omitted |= defaulted
                passed = {p.arg for p in positional[: len(call.args)]} | {k.arg for k in call.keywords}
                omitted |= defaulted - passed
            if defaulted - omitted:
                dead[f"{module}.{qualname}"] = sorted(defaulted - omitted)
    return dead


def test_every_default_of_an_unexported_function_is_used():
    # A default that every call in the package overrides is a second copy of
    # a value (the CLI's, say) or a path that only tests reach.  Exported
    # names keep theirs: they are library API.  It scans the imported
    # package, so an installed one too.
    assert dead_defaults(Path(ksring.__file__).parent) == {}


def test_dead_default_guard_names_a_planted_default(tmp_path):
    package = tmp_path / "ksring"
    package.mkdir()
    for path in Path(ksring.__file__).parent.glob("*.py"):
        (package / path.name).write_text(path.read_text())
    with open(package / "field.py", "a") as f:
        f.write("\n\ndef _planted(v, scale=1.0):\n    return v * scale\n\n\nPLANTED = _planted(1.0, 2.0)\n")
    assert dead_defaults(package) == {"field._planted": ["scale"]}
