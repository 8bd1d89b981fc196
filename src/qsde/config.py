"""Run-configuration parsing and validation.

A run is described by one JSON document with three sections::

    {
      "model":  { ... physical model or {"preset": "mollow", ...} ... },
      "run":    { "command": "...", "dt": ..., "horizon": ..., ... },
      "output": { "directory": "...", "formats": ["csv", "json"], ... }
    }

Complex numbers are written as strings "a+bi" (e.g. "0.5-0.5i", "2i",
"-3"); plain JSON numbers are accepted as reals.  Matrices are nested row
lists.  Validation collects every error before reporting, so a malformed
config produces the full list of problems, not just the first.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, fields

import numpy as np

from .model import GRID_TOL, DetectionSpec, DriveSpec, SystemModel, TimeGrid
from .mollow import MollowConfig, build_mollow_model

__all__ = [
    "ConfigError",
    "RunConfig",
    "OutputSpec",
    "RunSpec",
    "parse_config",
    "parse_complex",
    "format_complex",
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


def format_complex(z: complex, precision: int = 17) -> str:
    """Inverse of :func:`parse_complex`."""
    re_s = f"{z.real:.{precision}g}"
    im = z.imag
    if im == 0:
        return re_s
    sign = "+" if im >= 0 else "-"
    return f"{re_s}{sign}{abs(im):.{precision}g}i"


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


def _as_float(v) -> float:
    """``float(v)``, with an integer beyond the float range read as inf."""
    try:
        return float(v)
    except OverflowError:
        return math.inf


class _Collector:
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

    def complex_scalar(self, value, path: str) -> complex:
        try:
            return parse_complex(value)
        except ValueError as exc:
            self.add(path, str(exc))
            return 0j

    def complex_list(self, section: dict, key: str, path: str, default) -> list[complex]:
        """section[key] (``default`` if absent), a list of complex literals."""
        values = section.get(key, default)
        if not isinstance(values, list):
            self.add(f"{path}.{key}", "expected a list")
            return []
        return [self.complex_scalar(v, f"{path}.{key}[{i}]") for i, v in enumerate(values)]

    def matrix(self, value, path: str, dim: int | None = None) -> np.ndarray:
        if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
            self.add(path, "expected a nested row list")
            return np.zeros((dim or 1, dim or 1), dtype=complex)
        nrows = len(value)
        ncols = len(value[0]) if nrows else 0
        if any(len(row) != ncols for row in value):
            self.add(path, "rows have inconsistent lengths")
            return np.zeros((dim or 1, dim or 1), dtype=complex)
        if dim is not None and (nrows, ncols) != (dim, dim):
            self.add(path, f"expected a {dim}x{dim} matrix, got {nrows}x{ncols}")
        out = np.zeros((nrows, max(ncols, 1)), dtype=complex)
        for i, row in enumerate(value):
            for j, entry in enumerate(row):
                out[i, j] = self.complex_scalar(entry, f"{path}[{i}][{j}]")
        return out

    def number(self, section: dict, key: str, path: str, default=None, positive=False):
        if key not in section:
            if default is None:
                self.add(f"{path}.{key}", "missing required value")
                return 0.0
            return default
        value = self.finite(section[key], f"{path}.{key}")
        if value is None:
            return default if default is not None else 0.0
        if positive and value <= 0:
            self.add(f"{path}.{key}", "must be positive")
        return value

    def finite(self, v, path: str) -> float | None:
        """``v`` as a finite float, or None after recording why it is not one."""
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            self.add(path, f"expected a number, got {v!r}")
            return None
        value = _as_float(v)
        if not math.isfinite(value):
            self.add(path, f"must be a finite number, got {v!r}")
            return None
        return value

    def time(self, v, path: str, horizon: float | None, grid: TimeGrid | None) -> float:
        """A finite time, checked to lie in [0, horizon] and on the grid, if known."""
        t = self.finite(v, path)
        if t is None:
            return 0.0
        if horizon is not None and not 0.0 <= t <= horizon:
            self.add(path, f"{t!r} is outside [0, horizon = {horizon!r}]")
        elif grid is not None:
            try:
                grid.index(t)
            except ValueError:
                self.add(path, f"{t!r} is not a multiple of run.dt")
        return t

    def channel(self, v, path: str, nchannels: int | None) -> int:
        """A channel index in [0, nchannels), unchecked in range if the model is invalid."""
        if not isinstance(v, int) or isinstance(v, bool):
            self.add(path, f"expected an integer channel index, got {v!r}")
            return 0
        if nchannels is not None and not 0 <= v < nchannels:
            self.add(path, f"channel {v} is outside [0, {nchannels})")
        return v


_PRESET_KEYS = ("preset", "omega", "omega0", "nu", "alphas", "lambdas")
_MODEL_KEYS = ("dim", "hamiltonian", "channels", "drive", "detection", "frame")


def _parse_model(section, col: _Collector):
    preset = isinstance(section, dict) and "preset" in section
    if not col.known(section, "model", _PRESET_KEYS if preset else _MODEL_KEYS):
        return None, None
    if preset:
        if section["preset"] != "mollow":
            col.add("model.preset", f"unknown preset {section['preset']!r}")
            return None, None
        omega = col.number(section, "omega", "model", default=10.0, positive=True)
        omega0 = col.number(section, "omega0", "model", default=omega, positive=True)
        nu = col.number(section, "nu", "model", default=omega0, positive=True)
        alphas = col.complex_list(section, "alphas", "model", ["0.7071067811865476"] * 2)
        lambdas = col.complex_list(section, "lambdas", "model", ["0", "3.5355339059327378i"])
        if col.errors:
            return None, None
        try:
            cfg = MollowConfig(omega=omega, omega0=omega0, nu=nu,
                               alphas=np.array(alphas), lambdas=np.array(lambdas))
            return build_mollow_model(cfg), cfg
        except ValueError as exc:
            col.add("model", str(exc))
            return None, None

    dim = section.get("dim")
    if not isinstance(dim, int) or dim < 1:
        col.add("model.dim", "positive integer dimension is required")
        return None, None
    h = col.matrix(section.get("hamiltonian", []), "model.hamiltonian", dim)
    channels = section.get("channels", [])
    if not isinstance(channels, list) or not channels:
        col.add("model.channels", "at least one channel matrix is required")
        channels = []
    chan_mats = [col.matrix(ch, f"model.channels[{j}]", dim) for j, ch in enumerate(channels)]
    drive_sec = section.get("drive", {})
    if not col.known(drive_sec, "model.drive", ("amplitudes", "carrier")):
        drive_sec = {}
    amps = col.complex_list(drive_sec, "amplitudes", "model.drive",
                            [0.0] * max(len(chan_mats), 1))
    carrier = col.number(drive_sec, "carrier", "model.drive", default=0.0)
    det_sec = section.get("detection", {"kind": "diagonal-phase", "nu": 0.0})
    if not col.known(det_sec, "model.detection", ("kind", "nu", "matrix")):
        det_sec = {}
    kind = det_sec.get("kind", "diagonal-phase")
    frame = col.matrix(section.get("frame", np.zeros((dim, dim)).tolist()), "model.frame", dim)
    if col.errors:
        return None, None
    try:
        if kind == "constant-unitary":
            detection = DetectionSpec(kind=kind, matrix=col.matrix(
                det_sec.get("matrix", []), "model.detection.matrix", len(chan_mats)))
        else:
            detection = DetectionSpec(kind=kind, nu=col.number(det_sec, "nu", "model.detection",
                                                               default=0.0))
        model = SystemModel(hamiltonian=h, channels=tuple(chan_mats),
                            drive=DriveSpec(amplitudes=np.array(amps), carrier=carrier),
                            detection=detection, frame=frame)
        return model, None
    except ValueError as exc:
        col.add("model", str(exc))
        return None, None


def _parse_nu_grid(value, col: _Collector):
    if value is None:
        return None
    if isinstance(value, list):
        if not value:
            col.add("run.nu_grid", "frequency grid must not be empty")
            return None
        grid = [col.finite(v, f"run.nu_grid[{i}]") for i, v in enumerate(value)]
        return None if None in grid else np.asarray(grid)
    if isinstance(value, dict):
        col.known(value, "run.nu_grid", ("start", "stop", "count"))
        start = col.number(value, "start", "run.nu_grid")
        stop = col.number(value, "stop", "run.nu_grid")
        count = value.get("count")
        if not isinstance(count, int) or count < 1:
            col.add("run.nu_grid.count", "positive integer required")
            return None
        return np.linspace(start, stop, count)
    col.add("run.nu_grid", "expected a list or {start, stop, count}")
    return None


def _parse_run(section, col: _Collector, model: SystemModel | None):
    if not col.known(section, "run", [f.name for f in fields(RunSpec)]):
        return None
    command = section.get("command")
    if command not in COMMANDS:
        col.add("run.command", f"must be one of {', '.join(COMMANDS)}")
        command = "verify"
    nerrors = len(col.errors)
    dt = col.number(section, "dt", "run", default=1e-3, positive=True)
    dt_ok = len(col.errors) == nerrors
    nerrors = len(col.errors)
    horizon = col.number(section, "horizon", "run", default=2.0, positive=True)
    # Times are range-checked only against a valid horizon, and checked to be
    # grid points only when dt divides it, i.e. when the run's grid has step dt.
    time_bound = horizon if len(col.errors) == nerrors else None
    grid = TimeGrid.covering(horizon, dt) if dt_ok and time_bound is not None else None
    if grid is not None and abs(grid.h - dt) > GRID_TOL * dt:
        col.add("run.dt", f"{dt!r} does not divide run.horizon = {horizon!r}")
        grid = None
    ntraj = section.get("ntraj", 10_000)
    if not isinstance(ntraj, int) or ntraj < 1:
        col.add("run.ntraj", "must be a positive integer")
        ntraj = 1
    elif ntraj < 2 and command in ("trajectories", "moments"):
        col.add("run.ntraj", f"{command} needs at least 2 trajectories for a standard error")
    seed = section.get("seed", 1234)
    if not isinstance(seed, int):
        col.add("run.seed", "must be an integer")
        seed = 0
    record_times = section.get("record_times")
    if record_times is not None:
        if not isinstance(record_times, list) or not all(
                isinstance(t, (int, float)) for t in record_times):
            col.add("run.record_times", "expected a list of times")
            record_times = None
        else:
            record_times = tuple(col.time(t, f"run.record_times[{i}]", time_bound, grid)
                                 for i, t in enumerate(record_times))
    nu_grid = _parse_nu_grid(section.get("nu_grid"), col)
    pairs, requests = [], section.get("pairs", [])
    if not isinstance(requests, list):
        col.add("run.pairs", "expected a list")
        requests = []
    for p, entry in enumerate(requests):
        if (not isinstance(entry, list) or len(entry) != 4
                or not all(isinstance(x, (int, float)) for x in entry)):
            col.add(f"run.pairs[{p}]", "expected [i, j, t1, t2]")
            continue
        nchannels = len(model.channels) if model is not None else None
        pairs.append((col.channel(entry[0], f"run.pairs[{p}][0]", nchannels),
                      col.channel(entry[1], f"run.pairs[{p}][1]", nchannels),
                      col.time(entry[2], f"run.pairs[{p}][2]", time_bound, grid),
                      col.time(entry[3], f"run.pairs[{p}][3]", time_bound, grid)))
    initial = section.get("initial_state")
    if initial is not None:
        if not isinstance(initial, list):
            col.add("run.initial_state", "expected a list of amplitudes")
            initial = None
        else:
            nerrors = len(col.errors)
            vec = np.array([col.complex_scalar(v, f"run.initial_state[{i}]")
                            for i, v in enumerate(initial)], dtype=complex)
            nrm = np.linalg.norm(vec)
            if model is not None and len(vec) != model.dim:
                col.add("run.initial_state",
                        f"expected {model.dim} amplitudes, got {len(vec)}")
            elif not 0 < nrm < math.inf and len(col.errors) == nerrors:
                col.add("run.initial_state", "must be a nonzero vector of finite amplitudes")
            initial = vec / nrm if 0 < nrm < math.inf else vec
    chunk = section.get("chunk_size", 1024)
    if not isinstance(chunk, int) or chunk < 1:
        col.add("run.chunk_size", "must be a positive integer")
        chunk = 1024
    bias = col.number(section, "bias_coeff", "run", default=25.0)
    tol = col.number(section, "identity_tol", "run", default=1e-11, positive=True)
    return RunSpec(command=command, dt=dt, horizon=horizon, ntraj=ntraj, seed=seed,
                   record_times=record_times, nu_grid=nu_grid, pairs=tuple(pairs),
                   initial_state=initial, chunk_size=chunk, bias_coeff=bias,
                   identity_tol=tol)


def _parse_output(section, col: _Collector):
    if section is None:
        return OutputSpec()
    if not col.known(section, "output", [f.name for f in fields(OutputSpec)]):
        return OutputSpec()
    directory = section.get("directory", "out")
    if not isinstance(directory, str):
        col.add("output.directory", "expected a string")
        directory = "out"
    formats = section.get("formats", ["csv", "json"])
    if (not isinstance(formats, list) or not formats
            or not all(f in ("csv", "json") for f in formats)):
        col.add("output.formats", "expected a non-empty list drawn from ['csv', 'json']")
        formats = ["csv", "json"]
    precision = section.get("precision", 17)
    if not isinstance(precision, int) or not 1 <= precision <= 17:
        col.add("output.precision", "expected an integer in [1, 17]")
        precision = 17
    return OutputSpec(directory=directory, formats=tuple(formats), precision=precision)


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
    output = _parse_output(doc.get("output"), col)
    if (run is not None and run.command in ("spectrum", "mollow") and run.nu_grid is None
            and not any(e.startswith("run.nu_grid") for e in col.errors)):
        col.add("run.nu_grid", f"the {run.command} command requires a frequency grid")
    if (run is not None and run.command in ("spectrum", "mollow") and model is not None
            and model.detection.kind != "diagonal-phase"):
        col.add("model.detection.kind",
                f"the {run.command} command requires diagonal-phase detection")
    if run is not None and run.command == "mollow" and mollow_cfg is None and not col.errors:
        col.add("model", "the mollow command requires the mollow preset")
    if col.errors:
        raise ConfigError(col.errors)
    return RunConfig(model=model, run=run, output=output, mollow=mollow_cfg, echo=doc)
