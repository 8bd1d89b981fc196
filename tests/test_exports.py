import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qsde

SRC = Path(qsde.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
TRACER = ROOT / "perfbench" / "tracer.py"
LAYER_METRICS = ROOT / "perfbench" / "layers.py"


@pytest.mark.parametrize("name", sorted(info.name for info in pkgutil.iter_modules(qsde.__path__)))
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"qsde.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == [], f"qsde.{name}.__all__ names {missing}"


def _unused_imports(path: Path) -> list[str]:
    """``line: name`` of each name the module imports and never reads, is
    not in its ``__all__`` and not on a ``# noqa: F401`` line (``__future__``
    imports aside): pyflakes' F401, read from the AST."""
    source = path.read_text()
    lines, tree = source.splitlines(), ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= {name for node in tree.body if isinstance(node, ast.Assign)
             and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
             for name in ast.literal_eval(node.value)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                getattr(node, "module", None) == "__future__"):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).partition(".")[0]
            if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"{alias.lineno}: {name}")
    return unused


@pytest.mark.parametrize("name", sorted(path.name for path in SRC.glob("*.py")))
def test_no_unused_imports(name):
    """Every name a qsde module imports is used or re-exported: pyflakes is
    not a dependency, so this walks the module's AST instead."""
    assert _unused_imports(SRC / name) == []


def _tracer_probes() -> dict[str, set[str]]:
    """Each entry of the benchmark tracer's ``PROBES`` table, read from its
    source without importing it: the target and the call arguments its probe
    reads as ``args["name"]``."""
    tree = ast.parse(TRACER.read_text())
    probes = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["PROBES"])
    return {key.value: {n.slice.value for n in ast.walk(probes[probe.id])
                        if isinstance(n, ast.Subscript) and getattr(n.value, "id", None) == "args"}
            for key, probe in zip(table.keys, table.values)}


@pytest.mark.parametrize("target", sorted(_tracer_probes()))
def test_benchmark_tracer_probe_targets_exist(target):
    """Each probe of ``perfbench/tracer.py`` wraps the qsde function it names
    and reads arguments of its calls (``nsteps``, ``ntraj``, ``chunk_size``,
    ``coeffs``).  A renamed function or argument would leave the probe's
    counter at zero without an error; here it fails."""
    layer, _, name = target.partition(".")
    fn = getattr(importlib.import_module(f"qsde.{layer}"), name, None)
    assert inspect.isfunction(fn) and fn.__module__ == f"qsde.{layer}", target
    reads = _tracer_probes()[target]
    missing = reads - set(inspect.signature(fn).parameters)
    assert missing == set(), f"{target} takes no argument {sorted(missing)}"


def _span_metrics() -> list[str]:
    """The span names of the benchmark's per-layer span metrics
    ``<layer>.<name>.(calls|s|self_s)``, read from ``perfbench/layers.py``
    without importing it."""
    tree = ast.parse(LAYER_METRICS.read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["LAYER_METRICS"])
    spans = [key.value.rpartition(".") for key in table.keys]
    return sorted({span for span, _, field in spans if field in ("calls", "s", "self_s")})


@pytest.mark.parametrize("span", _span_metrics())
def test_benchmark_span_metrics_name_public_functions(span):
    """The tracer names a span after the public function or method it wraps
    (``<layer>.<function>``, or ``<layer>.<Class>.<method>`` when two classes
    share the method name); a metric whose function was renamed or made
    private reads 0 without an error, and here it fails."""
    layer, _, name = span.partition(".")
    tree = ast.parse((Path(qsde.__file__).parent / f"{layer}.py").read_text())
    *cls, attr = name.split(".")
    classes = [c for c in tree.body if isinstance(c, ast.ClassDef) and not c.name.startswith("_")]
    scopes = [c for c in classes if c.name == cls[0]] if cls else [tree, *classes]
    defined = [f for scope in scopes for f in scope.body
               if isinstance(f, ast.FunctionDef) and f.name == attr]
    assert not attr.startswith("_") and defined, f"qsde.{layer} defines no public {name}"


# Standard-library modules that numpy does not load and a library import of
# qsde.cli does not need: the worker pool's, the Wiener-law quantile's and the
# command line's, imported where they are used.
DEFERRED_STDLIB = ("multiprocessing", "socket", "statistics", "fractions", "decimal", "argparse")


def test_cli_import_graph_has_no_scipy():
    """Loading scipy made up most of a CLI run's start-up; qsde runs on numpy
    alone, so a fresh ``import qsde.cli`` loads no scipy module, nor any of
    DEFERRED_STDLIB."""
    env = dict(os.environ)
    src = str(Path(qsde.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (f"import sys, qsde.cli; print(' '.join(m for m in sys.modules "
             f"if m.startswith('scipy') or m.partition('.')[0] in {DEFERRED_STDLIB!r}))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout.strip()
    assert out == ""


def test_readme_library_use_block_runs(capsys):
    """README's *Library use* block runs verbatim, so an example naming a
    deleted function fails the suite, and its scan prints the three Mollow
    peaks its comment shows."""
    section = README.read_text().split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    peaks = "[ 5.1 10.  14.9]"
    assert capsys.readouterr().out.splitlines()[-1] == peaks
    assert f"# {peaks}\n" in code


def test_roadmap_items_are_named_by_title():
    """ROADMAP renumbers its items when it is rewritten, so a number in the
    code soon points at another item: every file under src/ and tests/
    names an item by its title."""
    numbered = re.compile(r"ROADMAP item \d")
    hits = [f"{path.relative_to(ROOT)}:{n}"
            for top in ("src", "tests") for path in sorted((ROOT / top).rglob("*"))
            if path.is_file() and "__pycache__" not in path.parts
            for n, line in enumerate(path.read_text(errors="replace").splitlines(), 1)
            if numbered.search(line)]
    assert hits == []


# The one public API the library keeps with no reader under src/ or perfbench/,
# each with its reason.
UNREAD_BY_DESIGN = {
    "generate_wiener": "draws the one given path of the single-path integrators, "
                       "which the acceptance criteria step",
    "integrate_linear": "the single-path linear integrator the acceptance criteria use",
    "integrate_nonlinear": "the single-path normalized integrator the acceptance criteria use",
}


def _unread_public_names(src: Path, readers: list[Path]) -> list[str]:
    """``module.name`` of each public top-level function or class, and each
    public method or property, of the modules under ``src`` whose name is
    never loaded outside its own definition in ``src`` or ``readers``.  A
    method counts as read only as an attribute (``x.name``), so a local
    variable of the same name does not hide it; a string in ``__all__``
    does not count."""
    trees = {path: ast.parse(path.read_text())
             for path in [*sorted(src.glob("*.py")), *readers]}
    loads = [n for tree in trees.values() for n in ast.walk(tree)
             if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)]
    unread = []
    for path in sorted(src.glob("*.py")):
        for node in trees[path].body:
            defs = [(node, False)] if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else []
            if isinstance(node, ast.ClassDef):
                defs += [(m, True) for m in node.body if isinstance(m, ast.FunctionDef)]
            for d, method in defs:
                if d.name.startswith("_"):
                    continue
                inside = {id(n) for n in ast.walk(d)}
                if not any(id(n) not in inside and (
                        n.attr == d.name if isinstance(n, ast.Attribute)
                        else not method and n.id == d.name) for n in loads):
                    unread.append(f"{path.stem}.{node.name}.{d.name}" if method
                                  else f"{path.stem}.{d.name}")
    return unread


def test_no_public_api_only_tests_read():
    """Library surface that no command, workload or benchmark reads is kept
    alive by its tests alone; every public name under src/ is read somewhere
    in src/ or perfbench/, apart from the allowlisted single-path API (an
    allowlisted name that gains a reader fails too, so the list stays true)."""
    unread = _unread_public_names(SRC, sorted((ROOT / "perfbench").rglob("*.py")))
    assert sorted(name.rpartition(".")[2] for name in unread) == sorted(UNREAD_BY_DESIGN), unread


# The parameters with a default that no call under src/ or perfbench/ passes,
# each with its reason.
SET_BY_TESTS_BY_DESIGN = {
    "trajectories.generate_wiener.stream": "the acceptance criteria draw per-trajectory paths",
    "statistics.wiener_law_tests.reweight": "criterion 07's negative control",
    **{f"mollow.canonical_config.{name}": "an input of the experiment, set in README and in "
                                          "the perfbench tests"
       for name in ("big_omega", "gamma", "omega", "nu")},
    "cli.main.argv": "the CLI's test entry",
}


def _defaulted_parameters(fn: ast.FunctionDef, method: bool) -> list[tuple[str, int | None]]:
    """(name, position among the arguments a call spells out) of each
    parameter of ``fn`` with a default; None for a keyword-only one.  A
    method's position leaves out ``self`` or ``cls``."""
    args = fn.args
    positional = [a.arg for a in [*args.posonlyargs, *args.args]][1 if method else 0:]
    defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
    return ([(name, positional.index(name)) for name in defaulted]
            + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None])


def _unpassed_parameters(src: Path, callers: list[Path]) -> list[str]:
    """``module.function.parameter`` (``module.Class.method.parameter`` for a
    method) of each parameter with a default of a public function of the
    modules under ``src``, or of a public method of their public classes,
    that no call in ``src`` or ``callers`` passes.  A call is matched by the
    function's name (``f(...)`` or ``x.f(...)``) and passes a parameter by
    keyword or by position; one with ``*`` or ``**`` arguments passes all."""
    calls = [n for path in [*sorted(src.glob("*.py")), *callers]
             for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.Call)]
    by_name: dict[str, list[ast.Call]] = {}
    for call in calls:
        name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
        by_name.setdefault(name, []).append(call)
    unpassed = []
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            defs = [(node, False, f"{path.stem}.{node.name}")] if isinstance(
                node, ast.FunctionDef) else [
                (m, True, f"{path.stem}.{node.name}.{m.name}") for m in node.body
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
            for fn, method, qualname in defs:
                for param, pos in _defaulted_parameters(fn, method):
                    if not any(
                            any(isinstance(a, ast.Starred) for a in call.args)
                            or any(k.arg in (None, param) for k in call.keywords)
                            or (pos is not None and len(call.args) > pos)
                            for call in by_name.get(fn.name, [])):
                        unpassed.append(f"{qualname}.{param}")
    return unpassed


def test_no_public_parameter_only_tests_set():
    """A parameter with a default that no command, workload or benchmark
    passes is a knob only tests turn; every such parameter of the public
    functions and methods under src/ is passed by some call in src/ or
    perfbench/, apart from the allowlisted ones (an allowlisted parameter
    that gains a caller fails too, so the list stays true)."""
    unpassed = _unpassed_parameters(SRC, sorted((ROOT / "perfbench").rglob("*.py")))
    assert sorted(unpassed) == sorted(SET_BY_TESTS_BY_DESIGN), unpassed
