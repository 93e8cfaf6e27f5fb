"""Suite-wide settings: hypothesis draws the same examples on every run and
keeps no example database, so two runs of the suite test the same cases.
The Python processes a test starts import the checkout's ``src/`` first, as
the suite itself does (``pythonpath`` in pyproject.toml)."""

import os
from pathlib import Path

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [
    str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]))
