"""Test-session configuration.

Property tests run under a fixed hypothesis profile: derandomized, so every
run draws the same examples, with no example database on disk and a bounded
example count, so they repeat exactly and stay within a few seconds.
"""

try:
    from hypothesis import settings
except ImportError:  # only the property tests need hypothesis
    settings = None

if settings is not None:
    settings.register_profile(
        "tier1", derandomize=True, deadline=None, database=None, max_examples=100
    )
    settings.load_profile("tier1")
