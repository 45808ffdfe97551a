"""Run configuration: one table of INI keys, the loader and RunConfig.

Configs are flat INI files with sections [model], [grid], [initial],
[solver] and [output]; lists are comma separated.  KEYS lists every key a
config may set, and the README shows a complete example.  A bound on one
field is written once, in the container that holds it (ksring.params,
ksring.field); the loader adds only the checks that relate fields to each
other or pick from a fixed set of choices, and the finiteness of the initial
data (I0, amplitudes).
"""

from __future__ import annotations

import configparser
import json
import math
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .field import GridSpec, PeriodicField, centered_difference, sample_cosine_sum, sample_cosine_sum_dsigma
from .params import FieldErrors, ModelParams, SolverConfig, TimeGrid, finite

# CPython's built-in SHA-256, the digest hashlib gives: hashlib itself loads
# OpenSSL's libcrypto, 3.6 MB of resident memory for one hash per process.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256

EMIT_CHOICES = ("v", "u", "curve", "means", "spectrum")
V0_METHODS = ("analytic", "centered")
REQUIRED = object()  # the default of a key a config must set


class ConfigError(ValueError):
    """Validation failure; carries one message per offending field."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


def _list_of(cast: Callable[[str], Any]) -> Callable[[str], list]:
    """The parser of a comma separated list; blank items are skipped."""
    return lambda raw: [cast(x) for x in raw.split(",") if x.strip()]


class Key(NamedTuple):
    """One config key.  `name` is matched case-insensitively; `attr` is the
    RunConfig attribute that to_dict, and so config_hash, records under
    section.name (None: the key is not hashed)."""

    section: str
    name: str
    parse: Callable[[str], Any]
    default: Any = REQUIRED
    attr: str | None = None


KEYS = (
    Key("model", "delta", float, attr="params.delta"),
    Key("model", "alpha", float, attr="params.alpha"),
    Key("model", "v_c", float, attr="params.v_c"),
    Key("grid", "J", int, attr="grid.J"),
    Key("grid", "k", float, attr="tgrid.k"),
    Key("grid", "T", float, attr="tgrid.T"),  # N*k, which may differ from the T read
    Key("initial", "R0", float, attr="params.R0"),
    Key("initial", "amplitudes", _list_of(float)),  # hashed as the (amplitude, mode) pairs
    Key("initial", "modes", _list_of(int), attr="modes"),
    Key("initial", "I0", float, 0.0, "I0"),
    Key("solver", "jn", int, SolverConfig.newton_iters, "solver.newton_iters"),
    Key("solver", "v0_method", str, "analytic", "v0_method"),
    Key("solver", "reference_tol", float, SolverConfig.reference_tol, "solver.reference_tol"),
    Key("output", "dir", str, None),
    Key("output", "stride", int, 1, "stride"),
    Key("output", "emit", _list_of(str.strip), EMIT_CHOICES, "emit"),
)
# A container field (the last part of a key's attr) to its section.key, for error messages.
QUALIFIED = {key.attr.rpartition(".")[2]: f"{key.section}.{key.name}" for key in KEYS if key.attr}


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    grid: GridSpec
    tgrid: TimeGrid
    modes: tuple[tuple[float, int], ...]
    I0: float
    solver: SolverConfig
    v0_method: str
    out_dir: str | None
    stride: int
    emit: tuple[str, ...]

    def to_dict(self) -> dict:
        out: dict = {}
        for key in KEYS:
            if key.attr:
                out.setdefault(key.section, {})[key.name] = attrgetter(key.attr)(self)
        return out

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return sha256(blob).hexdigest()

    def initial_v(self) -> PeriodicField:
        if self.v0_method == "centered":
            return centered_difference(sample_cosine_sum(self.grid, self.modes))
        return sample_cosine_sum_dsigma(self.grid, self.modes)


def _read_keys(cp: configparser.ConfigParser) -> dict[str, Any]:
    """Every key of KEYS by name, parsed or defaulted; ConfigError for an
    unknown, missing or unparseable key or section."""
    known: dict[str, set[str]] = {}
    for key in KEYS:
        known.setdefault(key.section, set()).add(key.name.lower())
    required = dict.fromkeys(key.section for key in KEYS if key.default is REQUIRED)
    problems = [f"{s}: unknown section" for s in cp.sections() if s not in known]
    for s in cp.sections():
        problems += [f"{s}.{o}: unknown key" for o in cp.options(s) if s in known and o not in known[s]]
    problems += [f"{s}: section missing" for s in required if not cp.has_section(s)]
    if problems:
        raise ConfigError(problems)

    values = {}
    for key in KEYS:
        where = f"{key.section}.{key.name}"
        if not cp.has_option(key.section, key.name):
            if key.default is REQUIRED:
                problems.append(f"{where}: missing")
            values[key.name] = key.default
            continue
        raw = cp.get(key.section, key.name)
        try:
            values[key.name] = key.parse(raw)
        except ValueError:
            problems.append(f"{where}: cannot parse {raw!r}")
    if problems:
        raise ConfigError(problems)
    return values


def load_config(path: str | Path) -> RunConfig:
    """Parses and validates a run configuration.

    Raises OSError if the file is missing, configparser.Error if it is not
    UTF-8 INI text (a leading byte-order mark is dropped), and ConfigError
    listing every field level problem.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as e:
        raise configparser.Error(f"{path} is not UTF-8 text: {e}") from None
    # No interpolation: a value such as dir = a%b is taken as written.
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    cp.read_string(text, source=str(path))
    v = _read_keys(cp)

    J, modes, amplitudes = v["J"], v["modes"], v["amplitudes"]
    checks = [
        (len(modes) > 0, "initial.modes", "must be nonempty"),
        (
            len(amplitudes) == len(modes),
            "initial.amplitudes",
            f"length {len(amplitudes)} does not match modes length {len(modes)}",
        ),
        (all(math.isfinite(a) for a in amplitudes), "initial.amplitudes", f"must be finite, got {amplitudes}"),
        finite(v["I0"], "initial.I0"),
        (all(m >= 2 for m in modes), "initial.modes", f"all modes must be >= 2, got {modes}"),
        (len(set(modes)) == len(modes), "initial.modes", f"modes must be distinct, got {modes}"),
        (all(m < J // 2 for m in modes), "initial.modes", f"modes must be below J/2 = {J // 2}, got {modes}"),
        (v["v0_method"] in V0_METHODS, "solver.v0_method", f"must be analytic or centered, got {v['v0_method']!r}"),
        (v["stride"] >= 1, "output.stride", f"must be >= 1, got {v['stride']}"),
        ("v" in v["emit"] or "u" not in v["emit"], "output.emit", "u needs v: u is a column of snapshot_<n>.csv"),
        (len(set(v["emit"])) == len(v["emit"]), "output.emit", f"artifacts must be distinct, got {v['emit']}"),
    ]
    checks += [(e in EMIT_CHOICES, "output.emit", f"unknown artifact {e!r}") for e in v["emit"]]
    problems = [f"{where}: {message}" for ok, where, message in checks if not ok]

    built = []  # each container's FieldErrors named by section.key
    for make, args in (
        (ModelParams, (v["delta"], v["alpha"], v["v_c"], v["R0"])),
        (GridSpec, (J,)),
        (TimeGrid.from_horizon, (v["T"], v["k"])),
        (SolverConfig, (v["jn"], v["reference_tol"])),
    ):
        try:
            built.append(make(*args))
        except FieldErrors as e:
            problems += [f"{QUALIFIED[name]}: {message}" for name, message in e.problems]
    if problems:
        raise ConfigError(problems)
    params, grid, tgrid, solver = built

    return RunConfig(
        params=params, grid=grid, tgrid=tgrid, modes=tuple(zip(amplitudes, modes)), I0=v["I0"], solver=solver,
        v0_method=v["v0_method"], out_dir=v["dir"], stride=v["stride"], emit=tuple(v["emit"]),
    )
