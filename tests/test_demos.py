"""Smoke test: every demo script, and every ```python block of README.md,
runs to the end against the public API."""

import contextlib
import io
import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMO_DIR = ROOT / "demos"
README_BLOCKS = re.findall(
    r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S
)


@pytest.mark.parametrize("script", sorted(p.name for p in DEMO_DIR.glob("*.py")))
def test_demo_runs(script):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        runpy.run_path(str(DEMO_DIR / script), run_name="__main__")
    assert out.getvalue()


@pytest.mark.parametrize(
    "block", README_BLOCKS, ids=[f"block{i}" for i in range(1, len(README_BLOCKS) + 1)]
)
def test_readme_block_runs(block):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(block, "README.md", "exec"), {"__name__": "__main__"})
    assert out.getvalue()
