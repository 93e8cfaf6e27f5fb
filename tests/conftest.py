"""Suite-wide settings: hypothesis draws the same examples on every run and
keeps no example database, so two runs of the suite test the same cases."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
