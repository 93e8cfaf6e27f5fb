"""The public surface: package exports and the README's Python example."""

import contextlib
import io
import re
from pathlib import Path

import rgflow
from rgflow.curvature import TOL_TOTAL

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_resolves():
    missing = [name for name in rgflow.__all__ if not hasattr(rgflow, name)]
    assert missing == []


def test_readme_python_example_runs_and_certifies():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    margins = [float(m) for m in re.findall(r"margin=(\S+)", out.getvalue())]
    assert len(margins) == 28  # all pairs of the 8 scales
    assert min(margins) >= -TOL_TOTAL
