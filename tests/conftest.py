"""Shared test settings: every hypothesis test runs derandomized, so a run
is reproducible, and keeps no example database in the checkout.  Each test
still sets its own example count and deadline."""

from hypothesis import settings

settings.register_profile("hclab", derandomize=True, database=None)
settings.load_profile("hclab")
