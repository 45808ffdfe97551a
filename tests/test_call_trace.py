"""Every function in src/ksring is one that a ksring command enters.

The guard imports ksring in a fresh interpreter and runs the four commands
at toy size under sys.settrace, together with the error paths that real
invocations reach (an inadmissible run with and without --force, a bad
config, a centered-difference v0).  It fails if a function defined in the
package is never entered, at import or by a command.  A test entry point or
oracle belongs in tests/oracles.py; one left in the package, or a helper
that nothing calls any more, fails here.

`python tests/test_call_trace.py DIR` runs the guard on the ksring that is
first on the path, in DIR, and prints the names it finds, one a line.
"""

import contextlib
import functools
import inspect
import io
import os
import subprocess
import sys
import types
from pathlib import Path

# Functions that no command enters, each with the reason it stays.
ALLOWED = {
    "cli.entry": "the console script: SystemExit(main()); the guard calls main, test_cli runs entry",
    "field.PeriodicField.__len__": "sequence protocol of the documented PeriodicField; no command indexes a field",
    "field.PeriodicField.__getitem__": "the wrapping index of the documented PeriodicField; no command indexes a field",
    "field.PeriodicField.__setattr__": "the immutability guard: it runs only when code assigns to a field",
}

CONFIG = """\
[model]
delta = {delta}
alpha = {alpha}
v_c = 0.001

[grid]
J = {J}
k = {k}
T = {T}

[initial]
R0 = 6.0
amplitudes = 0.1, 0.1
modes = 2, 3

[solver]
v0_method = {v0_method}

[output]
stride = 2
"""
GOOD = dict(delta=4.0, alpha=1.5, J=16, k=0.05, T=0.2, v0_method="analytic")
# k is far above the existence bound (about 0.02), so the run fails the check
# without --force and hits a non-positive circulant denominator with it.
INADMISSIBLE = dict(GOOD, delta=0.01, alpha=3.0, J=32, k=0.5, T=0.5)


def defined_functions(package: Path) -> dict:
    """(file, first line, name) of every function and lambda defined in the
    package's source, to its name qualified by module and class."""
    found = {}
    for path in sorted(package.glob("*.py")):
        stack = [(compile(path.read_text(), str(path), "exec"), path.stem)]
        while stack:
            code, prefix = stack.pop()
            for const in code.co_consts:
                if isinstance(const, types.CodeType):
                    name = f"{prefix}.{const.co_name}"
                    # class bodies run at import; comprehensions are expressions, not functions
                    function = const.co_flags & inspect.CO_OPTIMIZED
                    if function and (const.co_name == "<lambda>" or not const.co_name.startswith("<")):
                        found[(str(path), const.co_firstlineno, const.co_name)] = name
                    stack.append((const, name))
    return found


def run_commands(tmp: Path) -> None:
    """The four commands at toy size and the error paths of real invocations."""
    import ksring.cli

    main = ksring.cli.main

    def config(name, **fields):
        path = tmp / f"{name}.ini"
        path.write_text(CONFIG.format(**fields))
        return str(path)

    good = config("good", **GOOD)
    inadmissible = config("inadmissible", **INADMISSIBLE)
    codes = [
        main(["run", "--config", good, "--out", str(tmp / "run")]),
        main(["run", "--config", config("centered", **dict(GOOD, v0_method="centered")), "--out", str(tmp / "c")]),
        main(["eoc", "--config", good, "--levels", "3", "--out", str(tmp / "eoc")]),
        main(["stability-map", "--config", good, "--samples", "5", "--out", str(tmp / "map")]),
        main(["run", "--config", inadmissible, "--out", str(tmp / "inadmissible")]),
        main(["run", "--config", inadmissible, "--force", "--out", str(tmp / "forced")]),
        main(["run", "--config", config("bad", **dict(GOOD, J=15)), "--out", str(tmp / "bad")]),
    ]
    real_suite = ksring.cli.wavenumber_suite
    ksring.cli.wavenumber_suite = functools.partial(real_suite, J=32, k=0.05, T=0.5)
    try:
        codes.append(main(["wavenumber-suite", "--out", str(tmp / "suite")]))
    finally:
        ksring.cli.wavenumber_suite = real_suite
    assert codes == [0, 0, 0, 0, 1, 2, 1, 0], codes


def never_entered(tmp: Path) -> list[str]:
    """The functions of the package that neither its import nor run_commands
    enters, less ALLOWED."""
    entered = set()

    def trace(frame, event, arg):
        entered.add(frame.f_code)  # a call event; returning None traces no lines

    before = sys.gettrace()
    sys.settrace(trace)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            run_commands(tmp)  # imports ksring
    finally:
        sys.settrace(before)
    defined = defined_functions(Path(sys.modules["ksring"].__file__).parent)
    for code in entered:
        defined.pop((code.co_filename, code.co_firstlineno, code.co_name), None)
    return sorted(set(defined.values()) - set(ALLOWED))


def guard(package: Path, tmp: Path) -> list[str]:
    """never_entered(tmp) in a fresh interpreter that imports package."""
    proc = subprocess.run(
        [sys.executable, __file__, str(tmp)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(package.parent), PYTHONDONTWRITEBYTECODE="1"),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_every_package_function_is_entered_by_a_command(tmp_path):
    import ksring

    package = Path(ksring.__file__).parent
    assert guard(package, tmp_path) == []
    # each allowed name is still a function of the package
    assert set(ALLOWED) <= set(defined_functions(package).values())


def test_guard_names_a_planted_function(tmp_path):
    import ksring

    package = tmp_path / "src" / "ksring"
    package.mkdir(parents=True)
    for path in Path(ksring.__file__).parent.glob("*.py"):
        (package / path.name).write_text(path.read_text())
    with open(package / "field.py", "a") as f:
        f.write("\n\ndef _planted(v):\n    return v\n")
    (tmp_path / "work").mkdir()
    assert guard(package, tmp_path / "work") == ["field._planted"]


if __name__ == "__main__":
    print("\n".join(never_entered(Path(sys.argv[1]))))
