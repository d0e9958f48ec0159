"""Suite-wide Hypothesis settings: every property draws its examples from a
seed fixed by the test itself, so a run's verdict and wall time repeat.
``--hypothesis-profile default`` restores fresh draws on every run."""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")
