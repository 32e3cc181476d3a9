"""Smoke test: every demo script runs to completion."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # make_noisy_data.py writes .ds files here
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
