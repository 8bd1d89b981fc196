import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import qsde.cli as cli
from qsde import master
from qsde.cli import _ensemble_diagnostics, emit, main, run_command
from qsde.config import (
    ConfigError,
    OutputSpec,
    RunSpec,
    parse_complex,
    parse_config,
)
from qsde.linalg import max_abs
from qsde.master import STATIONARY_RESIDUAL_TOL, LindbladPropagator, stationary_state
from qsde.model import Coefficients, TimeGrid, build_coefficients, verify_weight_identity
from qsde.mollow import build_mollow_model, canonical_config
from qsde.statistics import Check, analytic_mean_series, mc_mean_output
from qsde.trajectories import Ensemble

MINIMAL_MOLLOW = {
    "model": {"preset": "mollow"},
    "run": {"command": "verify"},
}


def make_config(**overrides):
    doc = json.loads(json.dumps(MINIMAL_MOLLOW))
    for key, value in overrides.items():
        section, _, name = key.partition(".")
        if name:
            doc.setdefault(section, {})[name] = value
        else:
            doc[section] = value
    return doc


def test_parse_complex_literals():
    assert parse_complex("0.5-0.5i") == 0.5 - 0.5j
    assert parse_complex("3.5355339059327378i") == 3.5355339059327378j
    assert parse_complex("i") == 1j and parse_complex("-i") == -1j
    assert parse_complex("1e2+3e-1i") == 100 + 0.3j
    assert parse_complex(2) == 2 + 0j
    assert parse_complex(-0.25) == -0.25 + 0j
    for bad in ("", "abc", "1+2", "2ii", "1 + 2i"):
        with pytest.raises(ValueError):
            parse_complex(bad)


def test_minimal_mollow_defaults():
    cfg = parse_config(json.dumps(MINIMAL_MOLLOW))
    assert cfg.run.dt == 1e-3
    assert cfg.run.ntraj == 10_000
    assert cfg.mollow is not None
    assert cfg.model.dim == 2


def test_syntax_error_reports_location():
    with pytest.raises(ConfigError, match=r"line \d+"):
        parse_config("{\n  \"model\": [,]\n}")


def test_dimension_error_names_the_key():
    doc = {
        "model": {
            "dim": 2,
            "hamiltonian": [[0, 0], [0, 0], [0, 0]],
            "channels": [[[0, 0], [0, 0]]],
        },
        "run": {"command": "verify"},
    }
    with pytest.raises(ConfigError, match=r"model\.hamiltonian.*2x2"):
        parse_config(json.dumps(doc))


def test_all_errors_collected():
    doc = {
        "model": {"dim": 2, "hamiltonian": [["x", 0], [0, 0]],
                  "channels": [[[0, 0], [0, "y"]]]},
        "run": {"command": "bogus", "dt": -1},
    }
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    text = str(err.value)
    for needle in ("hamiltonian[0][0]", "channels[0][1][1]", "run.command", "run.dt"):
        assert needle in text, text


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10 ** 400])
def test_non_finite_numbers_rejected(value):
    with pytest.raises(ConfigError, match=r"run\.dt: must be a finite number"):
        parse_config(json.dumps(make_config(**{"run.dt": value})))


def test_record_times_outside_horizon_rejected():
    doc = make_config(**{"run.command": "trajectories", "run.horizon": 1.0,
                         "run.record_times": [0.0, 0.5, 7.0, -0.1, 1.0, 10 ** 400]})
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert [e.partition(":")[0] for e in err.value.errors] == [
        "run.record_times[2]", "run.record_times[3]", "run.record_times[5]"]
    assert "finite" in err.value.errors[2]
    # With an invalid horizon only the horizon is reported, not every time.
    doc = make_config(**{"run.command": "trajectories", "run.horizon": -1,
                         "run.record_times": [0.0, 0.5]})
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert [e.partition(":")[0] for e in err.value.errors] == ["run.horizon"]


def test_dt_must_divide_horizon():
    """dt = 0.3 on horizon 1.0 would stop the trajectories at 0.9 while the
    master and analytic routes step by 1/3: one error, naming run.dt."""
    doc = make_config(**{"run.command": "moments", "run.dt": 0.3, "run.horizon": 1.0,
                         "run.record_times": [0.5, 1.0]})
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.errors == ["run.dt: 0.3 does not divide run.horizon = 1.0"]
    for dt, horizon in ((0.1, 0.3), (0.005, 50.0), (1e-3, 2.0), (0.25, 0.25)):
        cfg = parse_config(json.dumps(make_config(**{"run.dt": dt, "run.horizon": horizon})))
        assert (cfg.run.dt, cfg.run.horizon) == (dt, horizon)
    # dt larger than the horizon divides it zero times
    with pytest.raises(ConfigError, match=r"run\.dt: 2\.0 does not divide"):
        parse_config(json.dumps(make_config(**{"run.dt": 2.0, "run.horizon": 1.0})))


@pytest.mark.parametrize("dt, horizon, steps", [(1e-300, 1e10, "inf"), (1e-3, 1e300, "1e+303")])
def test_step_count_past_int64_is_one_run_dt_error(dt, horizon, steps):
    """horizon / dt = inf steps ended in a raw OverflowError, and 1e303 steps
    were accepted and failed later in np.arange: each is one run.dt entry of
    the ConfigError."""
    doc = make_config(**{"run.dt": dt, "run.horizon": horizon})
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.errors == [f"run.dt: {steps} steps exceed the int64 index limit "
                                f"{np.iinfo(np.int64).max}"]


def test_pair_times_outside_horizon_rejected():
    doc = make_config(**{"run.command": "moments", "run.horizon": 0.1,
                         "run.pairs": [[0, 0, 0.05, 3.0], [0, 1, 0.1, 0.0],
                                       [1, 1, -0.01, float("nan")], [0, 0, 10 ** 400, 0.1]]})
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert [e.partition(":")[0] for e in err.value.errors] == [
        "run.pairs[0][3]", "run.pairs[2][2]", "run.pairs[2][3]", "run.pairs[3][2]"]
    assert "outside [0, horizon = 0.1]" in err.value.errors[0]
    assert "finite" in err.value.errors[2] and "finite" in err.value.errors[3]


def test_off_grid_times_rejected():
    """A pair or record time between grid points is a config error, one entry
    per time."""
    doc = make_config(**{"run.command": "moments", "run.horizon": 0.1, "run.dt": 1e-3,
                         "run.pairs": [[0, 0, 0.0503, 0.05]]})
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.errors == ["run.pairs[0][2]: 0.0503 is not a multiple of run.dt"]
    doc = make_config(**{"run.command": "trajectories", "run.horizon": 0.1, "run.dt": 1e-3,
                         "run.record_times": [0.05, 0.0503, 0.1, 0.07001],
                         "run.pairs": [[0, 1, 0.1, 0.0999]]})
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert [e.partition(":")[0] for e in err.value.errors] == [
        "run.record_times[1]", "run.record_times[3]", "run.pairs[0][3]"]
    # decimal multiples of dt are grid points
    doc["run"].update(record_times=[0.0, 0.003, 0.07, 0.1], pairs=[[0, 1, 0.1, 0.03]])
    assert parse_config(json.dumps(doc)).run.record_times == (0.0, 0.003, 0.07, 0.1)


@pytest.mark.parametrize("state, problem", [
    (["0", 0.0], "must be nonzero"),
    (["1e400", "0"], "must have finite amplitudes"),
    (["1", "1e400i"], "must have finite amplitudes"),
    ([3e-162, 0], "has squared norm 1e-323, not a positive finite normal double"),
    ([1e-160, 0], "has squared norm 1e-320, not a positive finite normal double")])
def test_zero_or_infinite_initial_state_listed_with_other_errors(state, problem):
    """The parser applies the ensemble engine's rule for the initial state.
    A subnormal squared norm has lost its digits: [3e-162, 0] parsed to a
    state of norm 0.954 and [1e-160, 0] to one of norm 1.0000056."""
    doc = make_config(**{"run.command": "master", "run.initial_state": state, "run.ntraj": 0})
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.errors == ["run.ntraj: must be a positive integer",
                                f"run.initial_state: {problem}"]


@pytest.mark.parametrize("command", ["trajectories", "moments"])
def test_ensemble_commands_need_two_trajectories(command):
    """One trajectory has no standard error: the martingale check passed
    with stderr 0 (mollow preset, dt 0.01, horizon 1, seed 3).  ntraj 1 is
    now listed with the other problems; commands without an ensemble keep it."""
    doc = make_config(**{"run.command": command, "run.dt": 0.01, "run.horizon": 1.0,
                         "run.ntraj": 1, "run.seed": 3, "run.chunk_size": 0})
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert [e.partition(":")[0] for e in err.value.errors] == ["run.ntraj", "run.chunk_size"]
    assert "at least 2 trajectories" in err.value.errors[0]
    doc["run"].update(ntraj=2, chunk_size=1024)
    assert parse_config(json.dumps(doc)).run.ntraj == 2
    doc["run"].update(command="master", ntraj=1)
    assert parse_config(json.dumps(doc)).run.ntraj == 1


def test_initial_state_normalised_at_parse_time():
    cfg = parse_config(json.dumps(make_config(**{"run.initial_state": ["3", "4i"]})))
    assert np.allclose(cfg.run.initial_state, [0.6, 0.8j], rtol=0.0, atol=1e-15)


def test_master_and_trajectories_share_checkpoints():
    """horizon 1.0, dt 0.25 has five grid points: both commands report each
    default checkpoint once."""
    times = {}
    for command, table in (("master", "rho"), ("trajectories", "weights")):
        doc = make_config(**{"run.command": command, "run.horizon": 1.0, "run.dt": 0.25,
                             "run.ntraj": 20})
        rows = run_command(parse_config(json.dumps(doc))).tables[table].rows
        times[command] = [row[0] for row in rows]
    assert times["trajectories"] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert sorted(set(times["master"])) == times["trajectories"]
    assert len(times["master"]) == 4 * len(times["trajectories"])


def test_pair_channel_indices_rejected():
    doc = make_config(**{"run.command": "moments", "run.horizon": 0.1,
                         "run.pairs": [[0, 7, 0.05, 0.1], [0.7, 1, 0.05, 0.1],
                                       [True, -1, 0.05, 0.1], [1, 0, 0.05, 0.1]]})
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert [e.partition(":")[0] for e in err.value.errors] == [
        "run.pairs[0][1]", "run.pairs[1][0]", "run.pairs[2][0]", "run.pairs[2][1]"]
    assert "outside [0, 2)" in err.value.errors[0] and "outside [0, 2)" in err.value.errors[3]
    assert "integer" in err.value.errors[1] and "integer" in err.value.errors[2]


@pytest.mark.parametrize("command", ["spectrum", "mollow"])
def test_spectrum_commands_require_diagonal_phase_detection(command):
    doc = {
        "model": {
            "dim": 2,
            "hamiltonian": [[1.0, 0], [0, -1.0]],
            "channels": [[["0", "0"], ["0.8", "0"]]],
            "detection": {"kind": "constant-unitary", "matrix": [["1"]]},
        },
        "run": {"command": command, "nu_grid": [0.0, 1.0], "ntraj": 0},
    }
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert [e.partition(":")[0] for e in err.value.errors] == ["run.ntraj",
                                                             "model.detection.kind"]
    assert f"the {command} command requires diagonal-phase" in err.value.errors[1]
    doc["run"] = {"command": "verify"}
    assert parse_config(json.dumps(doc)).model.detection.kind == "constant-unitary"


@pytest.mark.parametrize("entry", ["a", float("nan"), float("inf"), float("-inf"), True])
def test_nu_grid_list_entries_rejected(entry):
    doc = make_config(**{"run.command": "spectrum", "run.nu_grid": [9.0, entry]})
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert [e.partition(":")[0] for e in err.value.errors] == ["run.nu_grid[1]"]


@pytest.mark.parametrize("grid", [
    [10.0, 9.0], [9.0, 9.0], [9.0, 11.0, 10.0],
    {"start": 20.0, "stop": 0.0, "count": 81}, {"start": 5.0, "stop": 5.0, "count": 2}],
    ids=["descending", "repeated", "shuffled", "span-descending", "span-empty"])
def test_nu_grid_not_strictly_increasing_rejected(grid):
    """A descending grid gave the right spectrum but swapped the sidebands of
    the Mollow checks, and a shuffled one reported spurious peaks."""
    doc = make_config(**{"run.command": "mollow", "run.nu_grid": grid})
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.errors == ["run.nu_grid: must be strictly increasing"]


@pytest.mark.parametrize("grid, size", [([9.0], 1), ([9.0, 9.5], 2),
                                        ({"start": 5.0, "stop": 4.0, "count": 1}, 1)])
def test_nu_grid_of_one_point_or_increasing_accepted(grid, size):
    doc = make_config(**{"run.command": "mollow", "run.nu_grid": grid})
    assert len(parse_config(json.dumps(doc)).run.nu_grid) == size


def test_explicit_model_section():
    doc = {
        "model": {
            "dim": 2,
            "hamiltonian": [[1.0, 0], [0, -1.0]],
            "channels": [[["0", "0"], ["0.8", "0"]]],
            "drive": {"amplitudes": ["0"], "carrier": 0.0},
            "detection": {"kind": "diagonal-phase", "nu": 2.0},
        },
        "run": {"command": "verify", "horizon": 1.0},
    }
    cfg = parse_config(json.dumps(doc))
    assert cfg.model.dim == 2
    assert cfg.model.channels[0][1, 0] == 0.8
    assert cfg.model.detection.nu == 2.0


def test_unknown_keys_listed_with_their_paths():
    """A misspelt key used to be dropped in silence ("n_traj" ran the default
    10 000 trajectories, "dir" wrote to "out"): every unknown key, at every
    level, is now listed in the one ConfigError."""
    explicit = {"dim": 2, "hamiltonian": [[0, 0], [0, 0]], "channels": [[[0, 0], [1, 0]]],
                "drive": {"amplitudes": ["0"], "carier": 1.0},
                "detection": {"kind": "diagonal-phase", "freq": 1.0}, "frames": []}
    cases = [
        ({"model": {"preset": "mollow", "gamma": 1.0}, "run": {"command": "verify"},
          "outputs": {}}, ["outputs", "model.gamma"]),
        ({"model": {"preset": "mollow"}, "run": {"command": "trajectories", "n_traj": 5},
          "output": {"dir": "elsewhere"}}, ["run.n_traj", "output.dir"]),
        ({"model": explicit, "run": {"command": "spectrum",
                                     "nu_grid": {"start": 0, "stop": 1, "count": 3, "num": 4}}},
         ["model.frames", "model.drive.carier", "model.detection.freq", "run.nu_grid.num"]),
        ({"model": {"preset": "mollow", "dim": 2}, "run": {"command": "verify"}},
         ["model.dim"]),
    ]
    for doc, paths in cases:
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        assert sorted(err.value.errors) == sorted(f"{p}: unknown key" for p in paths)


EXPLICIT_MODEL = {"dim": 2, "hamiltonian": [[0, 0], [0, 0]], "channels": [[[0, 0], [1, 0]]]}


WRONGLY_TYPED = {   # path: (model, run, problem)
    "model.drive": (EXPLICIT_MODEL | {"drive": [1.0]}, {}, "expected an object"),
    "model.detection": (EXPLICIT_MODEL | {"detection": "diagonal-phase"}, {},
                        "expected an object"),
    "model.drive.amplitudes": (EXPLICIT_MODEL | {"drive": {"amplitudes": 2}}, {},
                               "expected a list"),
    "model.alphas": ({"preset": "mollow", "alphas": 1}, {}, "expected a list"),
    "model.lambdas": ({"preset": "mollow", "lambdas": 3}, {}, "expected a list"),
    "run.pairs": ({"preset": "mollow"}, {"pairs": 3}, "expected a list"),
}


@pytest.mark.parametrize("path", list(WRONGLY_TYPED))
def test_wrongly_typed_sections_rejected(path):
    """A section that is not an object, or a list that is not a list, is a
    ConfigError naming it, not an AttributeError or TypeError from inside
    the parser."""
    model, run, problem = WRONGLY_TYPED[path]
    doc = {"model": model, "run": {"command": "verify"} | run}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.errors == [f"{path}: {problem}"]


def test_every_spec_field_is_a_known_key():
    """Each RunSpec and OutputSpec field is accepted under its own name."""
    doc = make_config(**{"run.command": "moments", "run.dt": 0.01, "run.horizon": 1.0,
                         "run.ntraj": 4, "run.seed": 3, "run.record_times": [0.5],
                         "run.nu_grid": [1.0], "run.pairs": [[0, 0, 0.5, 1.0]],
                         "run.initial_state": [1, 0], "run.chunk_size": 2,
                         "output.directory": "o", "output.formats": ["csv"],
                         "output.precision": 9})
    cfg = parse_config(json.dumps(doc))
    assert (cfg.run.ntraj, cfg.output.directory, cfg.output.precision) == (4, "o", 9)


SEED_RANGE = "must be an integer in [0, 18446744073709551615]"
BOOLEAN_INTEGERS = {   # path: (doc, message)
    "run.seed": (make_config(**{"run.seed": True}), SEED_RANGE),
    "run.ntraj": (make_config(**{"run.ntraj": True}), "must be a positive integer"),
    "run.chunk_size": (make_config(**{"run.chunk_size": True}), "must be a positive integer"),
    "run.nu_grid.count": (make_config(**{"run.command": "spectrum", "run.nu_grid": {
        "start": 0.0, "stop": 1.0, "count": True}}), "must be a positive integer"),
    "output.precision": (make_config(**{"output.precision": True}),
                         "must be an integer in [1, 17]"),
    "model.dim": ({"model": EXPLICIT_MODEL | {"dim": True},
                   "run": {"command": "verify"}}, "must be a positive integer"),
}


@pytest.mark.parametrize("path", list(BOOLEAN_INTEGERS))
def test_boolean_is_not_an_integer(path):
    """JSON true parsed as the integer 1 (a seed, a chunk size, a precision of
    True), and model.dim true ended in a TypeError: every integer key now
    rejects a boolean with a ConfigError naming it."""
    doc, message = BOOLEAN_INTEGERS[path]
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.errors == [f"{path}: {message}"]


@pytest.mark.parametrize("command", ["trajectories", "moments", "master"])
def test_empty_record_times_rejected(command):
    """An empty record_times list passed the parser and ended in a reshape
    error inside the trajectory engine."""
    doc = make_config(**{"run.command": command, "run.ntraj": 4, "run.record_times": []})
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.errors == ["run.record_times: must not be empty"]


def test_check_bounds_are_not_config_keys():
    """run.bias_coeff and run.identity_tol set the bounds of the moment and
    weight-identity checks, so a config that raised them made those checks
    pass whatever the data.  The bounds are constants (cli.MOMENT_BIAS_COEFF,
    model.IDENTITY_TOL), and either key is unknown, listed with the other
    problems."""
    doc = make_config(**{"run.command": "moments", "run.bias_coeff": 1e9,
                         "run.identity_tol": 1.0, "run.ntraj": 0})
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.errors == ["run.bias_coeff: unknown key", "run.identity_tol: unknown key",
                                "run.ntraj: must be a positive integer"]


NULL_REJECTED = {   # path: (doc, message)
    "model.omega0": ({"model": {"preset": "mollow", "omega0": None}, "run": {"command": "verify"}},
                     "expected a number, got None"),
    "model.nu": ({"model": {"preset": "mollow", "nu": None}, "run": {"command": "verify"}},
                 "expected a number, got None"),
    "model.frame": ({"model": EXPLICIT_MODEL | {"frame": None}, "run": {"command": "verify"}},
                    "expected a list"),
    "model.drive.amplitudes": ({"model": EXPLICIT_MODEL | {"drive": {"amplitudes": None}},
                                "run": {"command": "verify"}}, "expected a list"),
    "run.seed": (make_config(**{"run.seed": None}), SEED_RANGE),
}


@pytest.mark.parametrize("path", list(NULL_REJECTED))
def test_null_is_not_absent_at_keys_that_need_a_value(path):
    """Only record_times, nu_grid, initial_state and the output section read
    null as absent; an optional model key given as null is an error."""
    doc, message = NULL_REJECTED[path]
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.errors == [f"{path}: {message}"]


def test_null_reads_as_absent_where_it_did():
    doc = make_config(**{"run.record_times": None, "run.nu_grid": None,
                         "run.initial_state": None, "output": None})
    cfg = parse_config(json.dumps(doc))
    assert cfg.run == RunSpec(command="verify") and cfg.output == OutputSpec()


def test_absent_keys_take_the_spec_defaults():
    """The declared defaults are those of RunSpec and OutputSpec."""
    cfg = parse_config(json.dumps(MINIMAL_MOLLOW))
    assert cfg.run == RunSpec(command="verify")
    assert cfg.output == OutputSpec()


def _same(a, b) -> bool:
    """Field-by-field equality of parsed configs, arrays exact."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(_same(getattr(a, f.name), getattr(b, f.name))
                                          for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    return type(a) is type(b) and a == b


ROOT = Path(__file__).resolve().parents[1]
SHIPPED = sorted([*ROOT.glob("configs/*.json"), *ROOT.glob("perfbench/configs/*.json")])


@pytest.mark.parametrize("path", SHIPPED, ids=[p.relative_to(ROOT).as_posix() for p in SHIPPED])
def test_shipped_configs_parse_and_echo_reparses_equal(path):
    cfg = parse_config(path.read_text())
    assert cfg.echo == json.loads(path.read_text())
    assert _same(parse_config(json.dumps(cfg.echo)), cfg)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 'Every check shows that it can fail': the config's "
                   "mean output is zero, so first-moment tests an effect of 6.2e-19")
def test_first_moment_on_moments_pairs_has_an_effect_to_test():
    """first-moment judges |mc - E[W_k(t)]| <= 3 sigma + MOMENT_BIAS_COEFF dt.
    It can tell the model from the null E[W_k(t)] = 0 only where the analytic
    mean exceeds that slack; on this config's grid the mean is at most 6.2e-19."""
    cfg = parse_config((ROOT / "perfbench" / "configs" / "moments_pairs.json").read_text())
    psi0 = np.eye(cfg.model.dim, dtype=complex)[0]
    assert cfg.run.initial_state is None
    mean = analytic_mean_series(LindbladPropagator(build_coefficients(cfg.model)),
                                np.outer(psi0, psi0.conj()), cfg.grid)
    assert np.abs(mean).max() > cli.MOMENT_BIAS_COEFF * cfg.run.dt


def test_spectrum_requires_grid():
    doc = make_config(**{"run.command": "spectrum"})
    with pytest.raises(ConfigError, match="nu_grid"):
        parse_config(json.dumps(doc))
    doc = make_config(**{"run.command": "spectrum", "run.nu_grid": []})
    with pytest.raises(ConfigError, match="empty"):
        parse_config(json.dumps(doc))


def test_verify_command_runs_green():
    cfg = parse_config(json.dumps(make_config()))
    bundle = run_command(cfg)
    assert bundle.passed
    assert "residuals" in bundle.tables and "norm_bounds" in bundle.tables


def _random_verify_doc(rng, scale: float) -> dict:
    """A verify config of a d = 3 model: random Hermitian H and frame, a
    random drive and two random channel matrices with entries near ``scale``."""
    def literal(z):
        return f"{z.real:.17g}{z.imag:+.17g}i"

    def matrix(m):
        return [[literal(z) for z in row] for row in m]

    def complex_normal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def hermitian():
        m = complex_normal(3, 3)
        return m + m.conj().T

    return {"model": {"dim": 3, "hamiltonian": matrix(hermitian()), "frame": matrix(hermitian()),
                      "channels": [matrix(scale * complex_normal(3, 3)) for _ in range(2)],
                      "drive": {"amplitudes": [literal(z) for z in complex_normal(2)],
                                "carrier": 1.3}},
            "run": {"command": "verify"}}


@pytest.mark.parametrize("scale", [1.0, 1e2, 1e3, 1e4])
@pytest.mark.parametrize("fault, passes", [(False, True), (True, False)],
                         ids=["valid", "fault"])
def test_weight_identity_judged_against_channel_scale(scale, fault, passes, monkeypatch):
    """verify judges each residual against model.IDENTITY_TOL * max(1, max-entry
    of sum_j R_j^* R_j): a valid model passes at every channel scale (its
    residuals grow with the entries, and the absolute 1e-11 failed valid
    models from scale 1e2 up), and K -> K - i delta I with delta = 1e-9
    max-entry(sum_j R_j^* R_j) fails at every scale.  The report and the
    CLI check give the same verdict."""
    cfg = parse_config(json.dumps(_random_verify_doc(np.random.default_rng(2718), scale)))
    if fault:
        k_table = Coefficients.k_table

        def shifted(self, times):
            r = self.r_table(times)
            delta = 1e-9 * np.abs(np.einsum("njlk,njlm->nkm", r.conj(), r)).max(axis=(1, 2))
            return k_table(self, times) - 1j * delta[:, None, None] * np.eye(self.dim)

        monkeypatch.setattr(Coefficients, "k_table", shifted)
    report = verify_weight_identity(build_coefficients(cfg.model), np.linspace(0.0, 2.0, 11))
    check, = run_command(cfg).checks
    assert check.name == "weight-identity"
    assert bool((report.residuals <= report.bounds).all()) is check.passed is passes, check.detail


def test_trajectory_command_rerun_bit_identical(tmp_path):
    doc = make_config(**{"run.command": "trajectories", "run.ntraj": 50,
                         "run.horizon": 0.2, "run.seed": 909})
    cfg = parse_config(json.dumps(doc))
    b1 = run_command(cfg)
    b2 = run_command(cfg)
    p1 = emit(b1, tmp_path / "a", formats=("csv",))
    p2 = emit(b2, tmp_path / "b", formats=("csv",))
    assert [p.name for p in p1] == [p.name for p in p2]
    for f1, f2 in zip(p1, p2):
        assert f1.read_bytes() == f2.read_bytes()


def test_worker_count_does_not_change_csv(tmp_path, monkeypatch):
    doc = make_config(**{"run.command": "trajectories", "run.ntraj": 40,
                         "run.horizon": 0.2, "run.seed": 37, "run.chunk_size": 10})
    cfg = parse_config(json.dumps(doc))
    monkeypatch.setenv("QSDE_WORKERS", "1")
    p1 = emit(run_command(cfg), tmp_path / "w1", formats=("csv",))
    monkeypatch.setenv("QSDE_WORKERS", "4")
    p2 = emit(run_command(cfg), tmp_path / "w4", formats=("csv",))
    for f1, f2 in zip(p1, p2):
        assert f1.read_bytes() == f2.read_bytes()


def test_json_roundtrip_field_for_field(tmp_path):
    cfg = parse_config(json.dumps(make_config()))
    bundle = run_command(cfg)
    paths = emit(bundle, tmp_path, formats=("json",))
    assert json.loads(paths[0].read_text()) == bundle.to_json_dict()


def test_moments_csv_schema(tmp_path):
    doc = make_config(**{"run.command": "moments", "run.ntraj": 100,
                         "run.horizon": 0.2, "run.record_times": [0.1, 0.2],
                         "run.pairs": [[0, 0, 0.2, 0.2]]})
    cfg = parse_config(json.dumps(doc))
    bundle = run_command(cfg)
    paths = emit(bundle, tmp_path, formats=("csv",))
    mean_csv = next(p for p in paths if "mean" in p.name)
    header = mean_csv.read_text().splitlines()[0]
    assert header == "t,channel,analytic,mc,stderr"


def test_main_exit_codes(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(make_config(**{"output.directory": str(tmp_path / "out")})))
    assert main(["--config", str(cfg_path)]) == 0
    assert main(["--config", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["--config", str(bad)]) == 1


@pytest.mark.parametrize("route", ["--out", "output.directory"])
def test_unusable_output_directory_rejected_before_any_work(route, tmp_path, monkeypatch, capsys):
    """An output directory under a regular file used to run the whole command
    and then die in emit with a NotADirectoryError traceback: main now makes
    the directory first and reports the OSError as exit 1."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    outdir = str(blocker / "out")
    cfg_path = tmp_path / "run.json"
    doc = make_config() if route == "--out" else make_config(**{"output.directory": outdir})
    cfg_path.write_text(json.dumps(doc))
    monkeypatch.setattr(cli, "run_command", lambda cfg: pytest.fail("the command ran"))
    argv = ["--config", str(cfg_path)] + (["--out", outdir] if route == "--out" else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write output: "), lines
    assert outdir in lines[0]


@pytest.mark.parametrize("workers", ["abc", "0", "-3"])
def test_bad_worker_count_rejected_before_any_work(workers, tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "run.json"
    out = tmp_path / "out"
    cfg_path.write_text(json.dumps(make_config(**{"run.command": "trajectories", "run.ntraj": 4,
                                                   "run.horizon": 0.01,
                                                   "output.directory": str(out)})))
    monkeypatch.setenv("QSDE_WORKERS", workers)
    assert main(["--config", str(cfg_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: QSDE_WORKERS")
    assert repr(workers) in lines[0]
    assert not out.exists()


def _plant_stationary_fault(monkeypatch):
    """A fault in the stationary solve: ``master.vectorize`` adds 1e-8
    diag(1, -1), a traceless Hermitian change that L_* does not annihilate,
    to each matrix it vectorizes.  In ``stationary_state`` that is the state
    whose residual is taken; the ``master`` command's initial state moves by
    it too, which no check sees."""
    vectorize = master.vectorize
    monkeypatch.setattr(master, "vectorize",
                        lambda m: vectorize(m + 1e-8 * np.diag([1.0, -1.0])))


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e6, 1e7])
def test_stationary_residual_bound_scales_with_generator(scale, monkeypatch):
    """The canonical Mollow model with every rate scaled: its stationary
    residual grows like the generator's entries (2.35e-10 at 1e6 and 2.8e-9
    at 1e7, which the former absolute bound 1e-10 failed), so the check
    passes it against 1e-10 x max(1, max-entry of L_*), and fails the same
    state perturbed by 1e-8 at every scale."""
    cfg = canonical_config(big_omega=5.0 * scale, gamma=scale, omega=10.0 * scale)
    gen = LindbladPropagator(build_coefficients(build_mollow_model(cfg)))
    verdicts = []
    for faulty in (False, True):
        if faulty:
            _plant_stationary_fault(monkeypatch)
        st = stationary_state(gen)
        assert st.bound == STATIONARY_RESIDUAL_TOL * max_abs(gen.generator_at(0.0))
        bundle = cli.ResultBundle(command="master", metadata={})
        cli._report_stationary(st, bundle)
        verdicts += [c.passed for c in bundle.checks if c.name == "stationary-residual"]
    assert verdicts == [True, False]


def test_stationary_residual_check_can_fail(tmp_path, capsys, monkeypatch):
    """A stationary state off by 1e-8 puts the residual far above its bound:
    a FAIL row and exit 2, not a traceback."""
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(make_config(**{
        "run.command": "master", "run.horizon": 0.1, "run.dt": 0.01,
        "output.directory": str(tmp_path / "out")})))
    _plant_stationary_fault(monkeypatch)
    assert main(["--config", str(cfg_path)]) == 2
    rows = [line for line in capsys.readouterr().out.splitlines() if "stationary-residual" in line]
    assert len(rows) == 1 and rows[0].startswith("[FAIL] stationary-residual: residual ")
    residual = float(rows[0].split()[3])
    assert residual > 1e-9
    doc = json.loads(next((tmp_path / "out").glob("master_*.json")).read_text())
    assert [c["passed"] for c in doc["checks"] if c["name"] == "stationary-residual"] == [False]


@pytest.mark.parametrize("command", ["spectrum", "mollow"])
def test_spectrum_stationary_residual_check_can_fail(command, tmp_path, capsys, monkeypatch):
    """The spectrum commands judge their stationary state as ``master`` does:
    the same fault gives a FAIL row with the residual and exit 2, where the
    scan used to end in a RuntimeError traceback."""
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(make_config(**{
        "run.command": command, "run.horizon": 0.1, "run.dt": 0.01,
        "run.nu_grid": {"start": 0.0, "stop": 20.0, "count": 5},
        "output.directory": str(tmp_path / "out")})))
    _plant_stationary_fault(monkeypatch)
    assert main(["--config", str(cfg_path)]) == 2
    rows = [line for line in capsys.readouterr().out.splitlines() if "stationary-residual" in line]
    assert len(rows) == 1 and rows[0].startswith("[FAIL] stationary-residual: residual ")
    residual = float(rows[0].split()[3])
    assert residual > 1e-9
    doc = json.loads(next((tmp_path / "out").glob(f"{command}_*.json")).read_text())
    assert [c["passed"] for c in doc["checks"] if c["name"] == "stationary-residual"] == [False]
    info = doc["metadata"]["stationary"]
    assert info["nullity"] == 1 and info["residual"] == pytest.approx(residual, rel=1e-3)


@pytest.mark.parametrize("command", ["master", "spectrum", "mollow"])
def test_stationary_solve_in_json_metadata_only(command, tmp_path):
    """Nullity and residual of the stationary solve go in the JSON metadata,
    with a passing residual check; the CSV bytes do not depend on them."""
    doc = make_config(**{"run.command": command, "run.horizon": 2.0, "run.dt": 0.01,
                         "run.nu_grid": {"start": 0.0, "stop": 20.0, "count": 21}})
    bundle = run_command(parse_config(json.dumps(doc)))
    info = bundle.metadata["stationary"]
    assert info["nullity"] == 1 and 0.0 <= info["residual"] <= 1e-10
    assert [c.passed for c in bundle.checks if c.name == "stationary-residual"] == [True]
    written = emit(bundle, tmp_path / "with", formats=("csv", "json"))
    assert json.loads(written[-1].read_text())["metadata"]["stationary"] == info
    del bundle.metadata["stationary"]
    bare = emit(bundle, tmp_path / "without", formats=("csv",))
    assert len(bare) == len(written) - 1
    for with_info, without in zip(written, bare):
        assert with_info.name == without.name
        assert with_info.read_bytes() == without.read_bytes()


def test_master_degenerate_stationary_metadata():
    """A degenerate stationary manifold records its nullity, with no residual
    and no residual check."""
    zero = [[0, 0], [0, 0]]
    doc = {"model": {"dim": 2, "hamiltonian": zero, "channels": [zero]},
           "run": {"command": "master", "horizon": 0.1, "dt": 0.01}}
    bundle = run_command(parse_config(json.dumps(doc)))
    assert bundle.metadata["stationary"] == {"nullity": 4, "residual": None}
    assert not any(c.name == "stationary-residual" for c in bundle.checks)


def test_ensemble_diagnostics_values():
    """ESS/N = (sum w)^2 / (N sum w^2); a path frozen at step n counts from
    the first checkpoint at or after n."""
    weight = np.array([[1.0, 1.0, 4.0], [1.0, 3.0, 0.5], [1.0, 2.0, 0.5]])
    ens = Ensemble(times=np.array([0.0, 0.5, 1.0]), psi=np.zeros((3, 3, 2)), weight=weight,
                   w_path=np.zeros((3, 3, 1)), innovation=np.zeros((3, 3, 1)),
                   frozen_at=np.array([-1, 5, 7]), grid=TimeGrid(0.1, 10))
    diag = _ensemble_diagnostics(ens)
    assert diag["t"] == [0.0, 0.5, 1.0]
    assert diag["frozen"] == [0, 1, 2]
    assert diag["max_weight"] == [1.0, 3.0, 4.0]
    assert diag["ess_fraction"] == pytest.approx([1.0, 36 / (3 * 14), 25 / (3 * 16.5)], rel=1e-15)
    assert diag["mean_weight"] == pytest.approx([1.0, 2.0, 5 / 3], rel=1e-15)


def test_trajectories_outputs_rows_are_mc_mean_output(monkeypatch):
    """The `outputs` table is mc_mean_output at every checkpoint and channel:
    the weighted mean of W_k, with its standard error std(ddof=1) / sqrt(N)."""
    run, ensembles = cli.run_linear_ensemble, []

    def run_and_keep(*args, **kwargs):
        ensembles.append(run(*args, **kwargs))
        return ensembles[-1]

    monkeypatch.setattr(cli, "run_linear_ensemble", run_and_keep)
    doc = make_config(**{"run.command": "trajectories", "run.ntraj": 40, "run.horizon": 0.2,
                         "run.seed": 5, "run.chunk_size": 16})
    rows = run_command(parse_config(json.dumps(doc))).tables["outputs"].rows
    (ens,) = ensembles
    assert rows == tuple((float(t), k, *mc_mean_output(ens, k, t))
                         for t in ens.times for k in range(2))
    for m, k in np.ndindex(len(ens.times), 2):
        contrib = ens.weight[:, m] * ens.w_path[:, m, k]
        _, _, mean, stderr = rows[2 * m + k]
        assert mean == float(contrib.mean())
        assert stderr == float(contrib.std(ddof=1) / np.sqrt(40))


@pytest.mark.parametrize("command", ["trajectories", "moments"])
def test_ensemble_diagnostics_in_json_metadata_only(command, tmp_path):
    doc = make_config(**{"run.command": command, "run.ntraj": 30, "run.horizon": 0.2,
                         "run.seed": 21, "run.chunk_size": 8})
    bundle = run_command(parse_config(json.dumps(doc)))
    diag = bundle.metadata["ensemble"]
    assert set(diag) == {"t", "frozen", "ess_fraction", "max_weight", "mean_weight"}
    assert len(diag["t"]) == 11 and all(len(diag[k]) == 11 for k in diag)
    assert diag["ess_fraction"][0] == 1.0 and all(0.0 < e <= 1.0 for e in diag["ess_fraction"])
    assert diag["mean_weight"][0] == 1.0
    assert all(0.0 < m <= x for m, x in zip(diag["mean_weight"], diag["max_weight"]))
    if command == "trajectories":
        assert diag["mean_weight"] == [row[1] for row in bundle.tables["weights"].rows]
    written = emit(bundle, tmp_path / "with", formats=("csv", "json"))
    assert json.loads(written[-1].read_text())["metadata"]["ensemble"] == diag
    del bundle.metadata["ensemble"]
    bare = emit(bundle, tmp_path / "without", formats=("csv",))
    assert len(bare) == len(written) - 1
    for with_diag, without in zip(written, bare):
        assert with_diag.name == without.name
        assert with_diag.read_bytes() == without.read_bytes()


def test_main_seed_override_changes_filenames(tmp_path):
    cfg_path = tmp_path / "run.json"
    doc = make_config(**{"run.command": "trajectories", "run.ntraj": 10,
                         "run.horizon": 0.1, "output.directory": str(tmp_path / "out")})
    cfg_path.write_text(json.dumps(doc))
    # tiny ensembles may legitimately fail 3-sigma checks (exit 2); this
    # test only pins the file naming and the config echo
    assert main(["--config", str(cfg_path), "--seed", "778899"]) in (0, 2)
    out = tmp_path / "out"
    named = list(out.glob("*_778899.csv"))
    assert named, list(out.iterdir())
    echo = json.loads((out / "trajectories_778899.json").read_text())
    assert echo["metadata"]["config"]["run"]["seed"] == 778899


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_the_philox_key_rejected(seed):
    """The generator is keyed by the seed mod 2^64, so -1 and 2^64 - 1 named
    one run twice."""
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(make_config(**{"run.seed": seed})))
    assert err.value.errors == [f"run.seed: {SEED_RANGE}"]
    for accepted in (0, 2**64 - 1):
        assert parse_config(json.dumps(make_config(**{"run.seed": accepted}))).run.seed == accepted


def test_main_seed_override_is_validated(tmp_path, capsys):
    """--seed used to bypass the config checks."""
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(make_config(**{"output.directory": str(tmp_path / "out")})))
    assert main(["--config", str(cfg_path), "--seed", "-1"]) == 1
    assert f"run.seed: {SEED_RANGE}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_martingale_row_with_zero_stderr_passes():
    """[1, 1] normalises to a squared norm of 0.9999999999999998, the same in
    every lane, so at t = 0 the mean weight is not 1 and its stderr is 0.  Such
    a row passes whatever its mean."""
    doc = make_config(**{"run.command": "trajectories", "run.ntraj": 4, "run.horizon": 0.2,
                         "run.dt": 0.01, "run.seed": 3, "run.initial_state": [1, 1]})
    t, mean, stderr, passed = run_command(parse_config(json.dumps(doc))).tables["weights"].rows[0]
    assert (t, stderr, passed) == (0.0, 0.0, 1) and mean != 1.0


@pytest.mark.parametrize("ntraj", [16, 100])
def test_martingale_null_is_the_mean_initial_weight(ntraj):
    """From [1, 1] the rounded mean of the t = 0 weights, 0.9999999999999999,
    carries a stderr of about 1e-17, so judging it against the literal 1
    failed a correct run at t = 0.  The null is now the mean initial weight,
    E[w_t] = E[w_0], which that row meets exactly."""
    doc = make_config(**{"run.command": "trajectories", "run.ntraj": ntraj, "run.horizon": 0.2,
                         "run.dt": 0.01, "run.seed": 1234, "run.initial_state": [1, 1]})
    bundle = run_command(parse_config(json.dumps(doc)))
    t, mean, stderr, passed = bundle.tables["weights"].rows[0]
    assert t == 0.0 and 0.0 < stderr < 1e-15 and mean != 1.0 and passed == 1
    assert next(c for c in bundle.checks if c.name == "martingale").passed


TINY_RUNS = {   # command: (run overrides, the checks in the order reported)
    "verify": ({}, ["weight-identity"]),
    "trajectories": ({"run.ntraj": 8, "run.horizon": 0.1, "run.dt": 0.01},
                     ["martingale", "wiener-law"]),
    "master": ({"run.horizon": 0.1, "run.dt": 0.01}, ["final-state-valid", "stationary-residual"]),
    "moments": ({"run.ntraj": 8, "run.horizon": 0.1, "run.dt": 0.01,
                 "run.pairs": [[0, 0, 0.1, 0.1]]}, ["first-moment", "second-moment"]),
    "spectrum": ({"run.horizon": 1.0, "run.dt": 0.01,
                  "run.nu_grid": {"start": 0.0, "stop": 20.0, "count": 41}},
                 ["stationary-residual", "spectrum-nonnegative"]),
    "mollow": ({"run.horizon": 1.0, "run.dt": 0.01,
                "run.nu_grid": {"start": 0.0, "stop": 20.0, "count": 41}},
               ["stationary-residual", "spectrum-nonnegative", "peak-count",
                "sideband-locations", "spectrum-symmetry"]),
}


@pytest.mark.parametrize("command", list(TINY_RUNS))
def test_each_command_reports_its_checks_in_order(command):
    """A dropped or renamed check shows here; every check is the one type."""
    overrides, names = TINY_RUNS[command]
    bundle = run_command(parse_config(json.dumps(make_config(**{"run.command": command,
                                                                **overrides}))))
    assert [c.name for c in bundle.checks] == names
    assert all(type(c) is Check and type(c.passed) is bool for c in bundle.checks)


def test_config_echo_reproduces_run(tmp_path):
    """Re-running from the metadata echo gives identical CSV bytes."""
    doc = make_config(**{"run.command": "trajectories", "run.ntraj": 20,
                         "run.horizon": 0.1, "run.seed": 5150})
    cfg = parse_config(json.dumps(doc))
    bundle = run_command(cfg)
    echo_cfg = parse_config(json.dumps(bundle.metadata["config"]))
    bundle2 = run_command(echo_cfg)
    p1 = emit(bundle, tmp_path / "orig", formats=("csv",))
    p2 = emit(bundle2, tmp_path / "echo", formats=("csv",))
    for f1, f2 in zip(p1, p2):
        assert f1.read_bytes() == f2.read_bytes()
