"""Shared test configuration.

Property tests exercise exact rational arithmetic whose first call can be
slow (module-level caches), so wall-clock deadlines and the
input-generation speed health check are disabled.
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "kingman",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("kingman")
