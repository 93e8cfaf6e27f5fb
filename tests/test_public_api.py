"""The public surface: package exports and the README's Python example."""

import contextlib
import io
import re
import subprocess
import sys
from pathlib import Path

import rgflow
from rgflow.curvature import TOL_TOTAL

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_resolves():
    missing = [name for name in rgflow.__all__ if not hasattr(rgflow, name)]
    assert missing == []


def test_spectral_names_resolve_on_first_access():
    code = """
import sys
import rgflow
assert "rgflow.spectral" not in sys.modules
spectrum = rgflow.spectrum
import rgflow.spectral
assert spectrum is rgflow.spectral.spectrum
ns = {}
exec("from rgflow import *", ns)
assert sorted(n for n in ns if n != "__builtins__") == sorted(rgflow.__all__)
assert ns["build_generator"] is rgflow.spectral.build_generator
try:
    rgflow.no_such_name
except AttributeError as exc:
    print(exc)
"""
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "module 'rgflow' has no attribute 'no_such_name'"


def test_readme_python_example_runs_and_certifies():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    margins = [float(m) for m in re.findall(r"margin=(\S+)", out.getvalue())]
    assert len(margins) == 28  # all pairs of the 8 scales
    assert min(margins) >= -TOL_TOTAL
