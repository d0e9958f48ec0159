"""Exception types shared across the package, and the one rule table on
config values that every door asks."""

import math


class GlmBanditError(Exception):
    """Base class for all library errors."""


class InvalidConfigError(GlmBanditError):
    """A configuration value or combination of values is not usable."""


class NumericalError(GlmBanditError):
    """Base class for numerical failures (CLI exit code 3)."""


class SingularDesignError(NumericalError):
    """The design matrix V is numerically singular (min eigenvalue < 1e-10)."""


class SingularFisherError(NumericalError):
    """The Fisher step matrix stayed below the eigenvalue floor even after
    the ridge fallback."""


class NonPositiveDefiniteError(NumericalError):
    """A quadratic form that must be nonnegative evaluated below -1e-12."""


ALPHA_RULES = ("explicit", "theorem2", "theorem3", "theorem4")

# The one rule on each config key's value, asked by every door that takes
# the key. Keys are checked in this order, so a config with several bad
# values names the first of them here.
# Python and NumPy integers have __index__, floats and NumPy bools have not.
_AT_LEAST_1 = (lambda v: v.__class__ is not bool and hasattr(v, "__index__") and v >= 1,
               "must be an integer of at least 1")
_NONNEGATIVE = (lambda v: 0 <= v < math.inf, "must be finite and nonnegative")
CONFIG_RULES = {
    "alpha_rule": (lambda v: v in ALPHA_RULES, f"must be one of {ALPHA_RULES}"),
    **dict.fromkeys(("T", "d", "K", "n", "replications", "record_every"), _AT_LEAST_1),
    "master_seed": (lambda v: 0 <= v < 1 << 64, "must lie in [0, 2**64)"),
    **dict.fromkeys(("tau", "theta_norm", "sigma", "alpha", "n_random_directions"), _NONNEGATIVE),
    "kappa": (lambda v: 0 < v < math.inf, "must be finite and positive"),
    "delta": (lambda v: 0 < v < 1, "must lie in (0, 1)"),
    "epsilon": (lambda v: 0 <= v <= 1, "must lie in [0, 1]"),
    "n_grid": (
        lambda v: min(v, default=0) > 0 and sorted(v) == list(v), "must be increasing and positive"
    ),
}


def check_config(**values) -> None:
    """Raise InvalidConfigError naming the key of the first value that breaks
    its rule in CONFIG_RULES; None, an absent key, is its door's to judge."""
    for name, (ok, rule) in CONFIG_RULES.items():
        value = values.get(name)
        if value is not None and not ok(value):
            raise InvalidConfigError(f"{name} {rule}, got {value!r}")
