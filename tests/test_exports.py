import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qsde

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", sorted(info.name for info in pkgutil.iter_modules(qsde.__path__)))
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"qsde.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == [], f"qsde.{name}.__all__ names {missing}"


def test_cli_import_graph_has_no_scipy():
    """Loading scipy made up most of a CLI run's start-up; qsde runs on numpy
    alone, so a fresh ``import qsde.cli`` loads no scipy module."""
    env = dict(os.environ)
    src = str(Path(qsde.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = ("import sys, qsde.cli; print(' '.join(m for m in sys.modules "
             "if m.startswith('scipy')))")
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
