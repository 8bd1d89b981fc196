"""Run-configuration parsing and validation.

A run is described by one JSON document with three sections::

    {
      "model":  { ... physical model or {"preset": "mollow", ...} ... },
      "run":    { "command": "...", "dt": ..., "horizon": ..., ... },
      "output": { "directory": "...", "formats": ["csv", "json"], ... }
    }

Complex numbers are written as strings "a+bi" (e.g. "0.5-0.5i", "2i",
"-3"); plain JSON numbers are accepted as reals.  Matrices are nested row
lists.  Each key is declared once below, with its kind, default and
constraint.  Validation collects every error before reporting, so a
malformed config produces the full list of problems, not just the first.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .model import DETECTION_KINDS, GRID_TOL, DetectionSpec, DriveSpec, SystemModel, TimeGrid
from .mollow import MollowConfig, build_mollow_model

__all__ = [
    "ConfigError",
    "RunConfig",
    "OutputSpec",
    "RunSpec",
    "parse_config",
    "parse_complex",
]

COMMANDS = ("verify", "trajectories", "master", "moments", "spectrum", "mollow")

_NUM = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_FULL = re.compile(rf"^\s*(?P<re>[+-]?{_NUM})(?P<im>[+-](?:{_NUM})?)i\s*$")
_COMPLEX_IMAG = re.compile(rf"^\s*(?P<im>[+-]?(?:{_NUM})?)i\s*$")
_COMPLEX_REAL = re.compile(rf"^\s*(?P<re>[+-]?{_NUM})\s*$")


class ConfigError(ValueError):
    """All validation problems of a config document."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {e}" for e in errors))


def _imag_value(text: str) -> float:
    if text in ("", "+"):
        return 1.0
    if text == "-":
        return -1.0
    return float(text)


def parse_complex(value) -> complex:
    """Parse "a+bi" literals; bare ints/floats are real."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(value)
    if not isinstance(value, str):
        raise ValueError(f"expected a number or 'a+bi' string, got {value!r}")
    m = _COMPLEX_FULL.match(value)
    if m:
        return complex(float(m.group("re")), _imag_value(m.group("im")))
    m = _COMPLEX_IMAG.match(value)
    if m:
        return complex(0.0, _imag_value(m.group("im")))
    m = _COMPLEX_REAL.match(value)
    if m:
        return complex(float(m.group("re")), 0.0)
    raise ValueError(f"malformed complex literal {value!r}")


@dataclass(frozen=True)
class RunSpec:
    command: str
    dt: float = 1e-3
    horizon: float = 2.0
    ntraj: int = 10_000
    seed: int = 1234
    record_times: tuple[float, ...] | None = None
    nu_grid: np.ndarray | None = None
    pairs: tuple[tuple[int, int, float, float], ...] = ()
    initial_state: np.ndarray | None = None
    chunk_size: int = 1024
    bias_coeff: float = 25.0
    identity_tol: float = 1e-11


@dataclass(frozen=True)
class OutputSpec:
    directory: str = "out"
    formats: tuple[str, ...] = ("csv", "json")
    precision: int = 17


@dataclass(frozen=True)
class RunConfig:
    model: SystemModel
    run: RunSpec
    output: OutputSpec
    mollow: MollowConfig | None = None
    echo: dict = field(default_factory=dict, repr=False)

    @property
    def grid(self) -> TimeGrid:
        """The run's time grid: [0, horizon] in steps of dt."""
        return TimeGrid.covering(self.run.horizon, self.run.dt)


_REQUIRED, _OPTIONAL = object(), object()


def _key(reader, default=_REQUIRED, **constraint) -> tuple:
    """A declared config key, checked by the :class:`_Collector` method
    ``reader`` with ``constraint``.  An absent key takes its ``default``, read
    like a given value.  A None default also reads null as absent; an
    ``_OPTIONAL`` key is None only when absent; a ``_REQUIRED`` one is needed."""
    return reader, default, constraint


class _Collector:
    """Reads config values, recording every problem under its path.

    Each reader, ``reader(value, path, ctx, **constraint)``, checks one kind
    of value and returns it, or None once it has recorded why the value is
    not of that kind.  ``ctx`` holds the values of the section read before
    it; the run's times and channels need ``horizon``, ``grid`` and
    ``nchannels`` in it, None where they are not known to be valid.
    """

    def __init__(self):
        self.errors: list[str] = []

    def add(self, path: str, message: str):
        self.errors.append(f"{path}: {message}")

    def known(self, section, path: str, keys) -> bool:
        """True if ``section`` is an object, else records that it is not;
        records each of its keys outside ``keys`` as unknown, by path."""
        if not isinstance(section, dict):
            self.add(path, "expected an object")
            return False
        for key in section:
            if key not in keys:
                self.add(f"{path}.{key}" if path else key, "unknown key")
        return True

    def fields(self, section: dict, path: str, ctx: dict, keys: dict) -> dict:
        """Each of the declared ``keys`` of ``section``, in order: read by its
        reader, or given its default."""
        ctx = dict(ctx)
        for name, (_, default, _) in keys.items():
            value = section.get(name, default)
            if value is _REQUIRED:
                self.add(f"{path}.{name}", "missing required value")
            absent = value in (_REQUIRED, _OPTIONAL) or (value is None and default is None)
            ctx[name] = None if absent else self.read(keys[name], value, f"{path}.{name}", ctx)
        return {name: ctx[name] for name in keys}

    def read(self, key: tuple, value, path: str, ctx: dict):
        reader, _, constraint = key
        return reader(self, value, path, ctx, **constraint)

    def section(self, value, path: str, ctx: dict, keys: dict) -> dict | None:
        """An object with only the declared ``keys``, read by :meth:`fields`."""
        return self.fields(value, path, ctx, keys) if self.known(value, path, keys) else None

    def items(self, value, path: str, ctx: dict, of=None, entries=None, nonempty=False):
        """A list, as a tuple: each entry read as the key ``of``, or one entry
        per key of ``entries``."""
        if not isinstance(value, list) or (entries is not None and len(value) != len(entries)):
            self.add(path, "expected a list" if entries is None
                     else f"expected a list of {len(entries)} entries")
            return None
        if nonempty and not value:
            self.add(path, "must not be empty")
            return None
        values = tuple(self.read(key, v, f"{path}[{i}]", ctx)
                       for i, (key, v) in enumerate(zip(entries or [of] * len(value), value)))
        return None if any(v is None for v in values) else values

    def integer(self, value, path: str, ctx: dict, lo=None, hi=None) -> int | None:
        """An integer in [lo, hi], either bound optional; JSON true and false
        are not integers."""
        if (isinstance(value, bool) or not isinstance(value, int)
                or (lo is not None and value < lo) or (hi is not None and value > hi)):
            self.add(path, "must be " + ("an integer" if lo is None
                                         else f"an integer in [{lo}, {hi}]" if hi is not None
                                         else "a positive integer" if lo == 1
                                         else f"an integer >= {lo}"))
            return None
        return value

    def real(self, value, path: str, ctx: dict, positive=False, nonnegative=False):
        """A finite number as a float; > 0 if ``positive``, >= 0 if
        ``nonnegative``."""
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.add(path, f"expected a number, got {value!r}")
            return None
        try:
            x = float(value)
        except OverflowError:   # an integer beyond the float range
            x = math.inf
        if not math.isfinite(x):
            self.add(path, f"must be a finite number, got {value!r}")
        elif positive and x <= 0:
            self.add(path, "must be positive")
        elif nonnegative and x < 0:
            self.add(path, "must not be negative")
        else:
            return x
        return None

    def time(self, value, path: str, ctx: dict) -> float | None:
        """A finite time, checked to lie in [0, horizon] and on the grid when
        those are known."""
        t, horizon, grid = self.real(value, path, ctx), ctx["horizon"], ctx["grid"]
        if t is None:
            return None
        if horizon is not None and not 0.0 <= t <= horizon:
            self.add(path, f"{t!r} is outside [0, horizon = {horizon!r}]")
            return None
        try:
            if grid is not None:
                grid.index(t)
        except ValueError:
            self.add(path, f"{t!r} is not a multiple of run.dt")
            return None
        return t

    def channel(self, value, path: str, ctx: dict) -> int | None:
        """An integer channel index, checked to lie in [0, nchannels) when
        the model is valid."""
        if self.integer(value, path, ctx) is None:
            return None
        n = ctx["nchannels"]
        if n is not None and not 0 <= value < n:
            self.add(path, f"channel {value} is outside [0, {n})")
            return None
        return value

    def complex(self, value, path: str, ctx: dict) -> complex | None:
        try:
            return parse_complex(value)
        except ValueError as exc:
            self.add(path, str(exc))
            return None

    def matrix(self, value, path: str, ctx: dict, size=None) -> np.ndarray | None:
        """A nested row list of complex entries; dim x dim when ``size``
        names a dimension in ``ctx`` that is known."""
        rows = self.items(value, path, ctx, of=_ROW)
        if rows is None:
            return None
        shape, dim = (len(rows), len(rows[0]) if rows else 0), ctx[size] if size else None
        if any(len(row) != shape[1] for row in rows):
            self.add(path, "rows have inconsistent lengths")
        elif dim is not None and shape != (dim, dim):
            self.add(path, f"expected a {dim}x{dim} matrix, got {shape[0]}x{shape[1]}")
        else:
            return np.array(rows, dtype=complex).reshape(shape)
        return None

    def choice(self, value, path: str, ctx: dict, options: tuple[str, ...]) -> str | None:
        if value not in options:
            self.add(path, f"must be one of {', '.join(options)}")
            return None
        return value

    def text(self, value, path: str, ctx: dict) -> str | None:
        if not isinstance(value, str):
            self.add(path, "expected a string")
            return None
        return value

    def frequencies(self, value, path: str, ctx: dict) -> np.ndarray | None:
        """A non-empty, strictly increasing list of finite numbers, or
        {start, stop, count} for ``np.linspace`` (stop > start when count >= 2)."""
        if isinstance(value, dict):
            span = self.section(value, path, ctx, _NU_SPAN)
            grid = None if None in span.values() else np.linspace(
                span["start"], span["stop"], span["count"])
        else:
            grid = self.items(value, path, ctx, of=_REAL, nonempty=True)
        if grid is not None and np.any(np.diff(grid) <= 0):
            self.add(path, "must be strictly increasing")
            grid = None
        return None if grid is None else np.asarray(grid)


_C = _Collector
_REAL, _COMPLEX, _TIME, _CHANNEL = _key(_C.real), _key(_C.complex), _key(_C.time), _key(_C.channel)
_ROW = _key(_C.items, of=_COMPLEX)

# model {"preset": "mollow", ...}; omega0 defaults to omega, and nu to omega0.
_PRESET = {
    "preset": _key(_C.choice, options=("mollow",)),
    "omega": _key(_C.real, 10.0, positive=True),
    "omega0": _key(_C.real, _OPTIONAL, positive=True),
    "nu": _key(_C.real, _OPTIONAL, positive=True),
    "alphas": _key(_C.items, ["0.7071067811865476"] * 2, of=_COMPLEX),
    "lambdas": _key(_C.items, ["0", "3.5355339059327378i"], of=_COMPLEX),
}
# An explicit model; the drive amplitudes default to 0 per channel, the frame to 0.
_MODEL = {
    "dim": _key(_C.integer, lo=1),
    "hamiltonian": _key(_C.matrix, size="dim"),
    "channels": _key(_C.items, of=_key(_C.matrix, size="dim"), nonempty=True),
    "drive": _key(_C.section, {}, keys={
        "amplitudes": _key(_C.items, _OPTIONAL, of=_COMPLEX),
        "carrier": _key(_C.real, 0.0),
    }),
    "detection": _key(_C.section, {}, keys={
        "kind": _key(_C.choice, "diagonal-phase", options=DETECTION_KINDS),
        "nu": _key(_C.real, 0.0),
        "matrix": _key(_C.matrix, _OPTIONAL),
    }),
    "frame": _key(_C.matrix, _OPTIONAL, size="dim"),
}
# The run section is read in two parts, with the rules on dt, horizon and
# ntraj between them: the times of the second part are checked on the grid
# of the first.
_RUN_CLOCK = {
    "command": _key(_C.choice, options=COMMANDS),
    "dt": _key(_C.real, 1e-3, positive=True),
    "horizon": _key(_C.real, 2.0, positive=True),
    "ntraj": _key(_C.integer, 10_000, lo=1),
}
_RUN = {
    "seed": _key(_C.integer, 1234, lo=0, hi=2**64 - 1),   # the Philox key is 64 bits
    "record_times": _key(_C.items, None, of=_TIME, nonempty=True),
    "nu_grid": _key(_C.frequencies, None),
    "pairs": _key(_C.items, [], of=_key(_C.items, entries=(_CHANNEL, _CHANNEL, _TIME, _TIME))),
    "initial_state": _key(_C.items, None, of=_COMPLEX),
    "chunk_size": _key(_C.integer, 1024, lo=1),
    "bias_coeff": _key(_C.real, 25.0, nonnegative=True),
    "identity_tol": _key(_C.real, 1e-11, positive=True),
}
_NU_SPAN = {"start": _REAL, "stop": _REAL, "count": _key(_C.integer, lo=1)}
_OUTPUT = {
    "directory": _key(_C.text, "out"),
    "formats": _key(_C.items, ["csv", "json"], of=_key(_C.choice, options=("csv", "json")),
                    nonempty=True),
    "precision": _key(_C.integer, 17, lo=1, hi=17),
}


def _parse_model(section, col: _Collector):
    """The model and, for the preset, its :class:`MollowConfig`; (None, None)
    once any error is recorded."""
    preset = isinstance(section, dict) and "preset" in section
    v = col.section(section, "model", {}, _PRESET if preset else _MODEL)
    if col.errors:
        return None, None
    try:
        if preset:
            omega0 = v["omega0"] or v["omega"]   # a given value is positive
            cfg = MollowConfig(omega=v["omega"], omega0=omega0, nu=v["nu"] or omega0,
                               alphas=np.array(v["alphas"]), lambdas=np.array(v["lambdas"]))
            return build_mollow_model(cfg), cfg
        drive, det = v["drive"], v["detection"]
        model = SystemModel(
            hamiltonian=v["hamiltonian"], channels=v["channels"],
            drive=DriveSpec(amplitudes=np.zeros(len(v["channels"])) if drive["amplitudes"] is None
                            else drive["amplitudes"], carrier=drive["carrier"]),
            detection=(DetectionSpec(kind=det["kind"], matrix=det["matrix"])
                       if det["kind"] == "constant-unitary" else DetectionSpec(nu=det["nu"])),
            frame=np.zeros((v["dim"], v["dim"])) if v["frame"] is None else v["frame"])
        return model, None
    except ValueError as exc:
        col.add("model", str(exc))
        return None, None


def _parse_run(section, col: _Collector, model: SystemModel | None) -> RunSpec | None:
    if not col.known(section, "run", _RUN_CLOCK | _RUN):
        return None
    run = col.fields(section, "run", {}, _RUN_CLOCK)
    command, dt, horizon, ntraj = (run[k] for k in ("command", "dt", "horizon", "ntraj"))
    # Times are range-checked only against a valid horizon, and checked to be
    # grid points only when dt divides it, i.e. when the run's grid has step dt.
    grid = None if dt is None or horizon is None else TimeGrid.covering(horizon, dt)
    if grid is not None and abs(grid.h - dt) > GRID_TOL * dt:
        col.add("run.dt", f"{dt!r} does not divide run.horizon = {horizon!r}")
        grid = None
    if ntraj is not None and ntraj < 2 and command in ("trajectories", "moments"):
        col.add("run.ntraj", f"{command} needs at least 2 trajectories for a standard error")
    nchannels = model.nchannels if model is not None else None
    run |= col.fields(section, "run", {"horizon": horizon, "grid": grid, "nchannels": nchannels},
                      _RUN)
    if run["initial_state"] is not None:
        vec = np.array(run["initial_state"], dtype=complex)
        nrm = np.linalg.norm(vec)
        if model is not None and len(vec) != model.dim:
            col.add("run.initial_state", f"expected {model.dim} amplitudes, got {len(vec)}")
        elif not 0 < nrm < math.inf:
            col.add("run.initial_state", "must be a nonzero vector of finite amplitudes")
        else:
            run["initial_state"] = vec / nrm
    return RunSpec(**run)


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a config document.

    Raises :class:`ConfigError` carrying every detected problem; JSON
    syntax errors report the line and column.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"])
    if not isinstance(doc, dict):
        raise ConfigError(["top level: expected an object"])
    col = _Collector()
    col.known(doc, "", ("model", "run", "output"))
    model, mollow_cfg = _parse_model(doc.get("model"), col)
    run = _parse_run(doc.get("run", {}), col, model)
    output = col.section({} if doc.get("output") is None else doc["output"], "output", {},
                         _OUTPUT)
    spectral = run is not None and run.command in ("spectrum", "mollow")
    if (spectral and run.nu_grid is None
            and not any(e.startswith("run.nu_grid") for e in col.errors)):
        col.add("run.nu_grid", f"the {run.command} command requires a frequency grid")
    if spectral and model is not None and model.detection.kind != "diagonal-phase":
        col.add("model.detection.kind",
                f"the {run.command} command requires diagonal-phase detection")
    if run is not None and run.command == "mollow" and mollow_cfg is None and not col.errors:
        col.add("model", "the mollow command requires the mollow preset")
    if col.errors:
        raise ConfigError(col.errors)
    return RunConfig(model=model, run=run, output=OutputSpec(**output), mollow=mollow_cfg,
                     echo=doc)
