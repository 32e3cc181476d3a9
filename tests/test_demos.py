"""Smoke tests: every demo script and README's library example run, and
the package root exports exactly what they import, plus the error types."""

import ast
import re
import runpy
from pathlib import Path

import pytest

import protosemi
from protosemi import errors

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def library_example() -> str:
    """The python block under README's "Library use" heading."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def imported_from_root(source: str) -> set:
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "protosemi"
            for alias in node.names}


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # make_noisy_data.py writes .ds files here
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_library_example_runs(capsys):
    exec(compile(library_example(), "README.md", "exec"), {})
    assert 0.0 <= float(capsys.readouterr().out) <= 1.0


def test_root_exports_what_examples_import():
    used = imported_from_root(library_example())
    for script in DEMOS:
        used |= imported_from_root(script.read_text())
    error_types = {name for name, value in vars(errors).items()
                   if isinstance(value, type) and issubclass(value, errors.ProtoSemiError)}
    assert len(error_types) == 5
    assert len(protosemi.__all__) == len(set(protosemi.__all__)) == 21
    assert set(protosemi.__all__) == used | error_types
    for name in protosemi.__all__:
        getattr(protosemi, name)
