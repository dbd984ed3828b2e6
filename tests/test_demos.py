"""Smoke test: every demo script runs to the end against the public API."""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script", sorted(p.name for p in DEMO_DIR.glob("*.py")))
def test_demo_runs(script):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        runpy.run_path(str(DEMO_DIR / script), run_name="__main__")
    assert out.getvalue()
