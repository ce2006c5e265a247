"""Test-session settings shared by every test module.

Property tests draw their examples from a fixed seed and have no deadline,
so a tier-1 run gives the same result on every machine and under load.
"""

from hypothesis import settings

settings.register_profile("satlink", derandomize=True, deadline=None)
settings.load_profile("satlink")
