"""Test-wide settings: every hypothesis property runs deterministically.

Properties set only ``max_examples``; the profile loaded here derandomizes
them, keeps no example database and lifts the per-example deadline, so a
run draws the same examples on any machine and at any speed.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")
